package edge

import "testing"

func TestPushAndAccessors(t *testing.T) {
	var l List
	l.Push(1, 2)
	l.Push(3, 4)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Src(0) != 1 || l.Dst(0) != 2 || l.Src(1) != 3 || l.Dst(1) != 4 {
		t.Fatalf("accessors wrong: %v", l)
	}
}

func TestMakeCapacity(t *testing.T) {
	l := Make(10)
	if l.Len() != 0 || cap(l) != 20 {
		t.Fatalf("Make(10): len=%d cap=%d", l.Len(), cap(l))
	}
}

func TestMaxVertex(t *testing.T) {
	var l List
	if _, ok := l.MaxVertex(); ok {
		t.Fatal("empty list reported a max")
	}
	l.Push(5, 9)
	l.Push(2, 3)
	if m, ok := l.MaxVertex(); !ok || m != 9 {
		t.Fatalf("MaxVertex = %d,%v", m, ok)
	}
}

func TestValidate(t *testing.T) {
	l := List{1, 2, 3, 4}
	if err := l.Validate(5); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if err := l.Validate(4); err == nil {
		t.Fatal("endpoint 4 accepted with n=4")
	}
	ragged := List{1, 2, 3}
	if err := ragged.Validate(10); err == nil {
		t.Fatal("ragged list accepted")
	}
}
