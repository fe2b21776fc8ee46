package edge

import "testing"

func TestBatchValidate(t *testing.T) {
	b := Batch{{Op: OpInsert, Src: 1, Dst: 9}}
	if err := b.Validate(10); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := b.Validate(9); err == nil {
		t.Fatal("endpoint at n accepted")
	}
	if err := (Batch{{Src: 1, Dst: 2}}).Validate(10); err == nil {
		t.Fatal("zero op accepted")
	}
}

// TestApplyToSemantics pins the oracle: insert-if-absent, delete-all-copies,
// order-sensitive re-inserts.
func TestApplyToSemantics(t *testing.T) {
	base := List{0, 1, 0, 1, 1, 2} // (0,1) twice, (1,2)
	got := Batch{
		{Op: OpInsert, Src: 0, Dst: 1}, // no-op: already present
		{Op: OpInsert, Src: 2, Dst: 0}, // new edge
		{Op: OpInsert, Src: 2, Dst: 0}, // duplicate insert: no-op
		{Op: OpDelete, Src: 0, Dst: 1}, // removes both copies
		{Op: OpDelete, Src: 3, Dst: 3}, // delete of missing edge: no-op
		{Op: OpInsert, Src: 0, Dst: 1}, // re-insert after delete
		{Op: OpDelete, Src: 2, Dst: 0}, // delete the earlier insert
	}.ApplyTo(base)
	want := List{1, 2, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Self-loops round-trip through delete/insert too.
	looped := Batch{{Op: OpInsert, Src: 4, Dst: 4}}.ApplyTo(got)
	if looped.Len() != got.Len()+1 {
		t.Fatalf("self-loop insert failed: %v", looped)
	}
}
