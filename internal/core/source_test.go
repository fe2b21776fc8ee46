package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
)

// TestOpenSource pins the one input opener every command shares: -file and
// -rmat exclude each other, each alone yields its source, neither yields
// no source, and a bad spec keeps the text the commands print.
func TestOpenSource(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 256, NumEdges: 1024, Seed: 3}
	edges, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "e.bin")
	if err := gio.WriteFile(file, edges); err != nil {
		t.Fatal(err)
	}
	want, err := gen.ParseRMAT("65536,1048576,7")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, file, rmat string
		wantErr          string // substring; empty means no error
		check            func(t *testing.T, src EdgeSource)
	}{
		{name: "both", file: file, rmat: "65536,1048576,7", wantErr: "-file and -rmat are mutually exclusive"},
		{name: "rmat", rmat: "65536,1048576,7", check: func(t *testing.T, src EdgeSource) {
			if got, ok := src.(SpecSource); !ok || got.Spec != want {
				t.Fatalf("source %#v, want SpecSource{%#v}", src, want)
			}
		}},
		{name: "file", file: file, check: func(t *testing.T, src EdgeSource) {
			r, ok := src.(*gio.Reader)
			if !ok {
				t.Fatalf("source %T, want *gio.Reader", src)
			}
			if r.NumEdges() != uint64(edges.Len()) {
				t.Fatalf("NumEdges %d, want %d", r.NumEdges(), edges.Len())
			}
		}},
		{name: "neither", check: func(t *testing.T, src EdgeSource) {
			if src != nil {
				t.Fatalf("source %#v, want nil", src)
			}
		}},
		{name: "bad-rmat", rmat: "65536,7", wantErr: `-rmat: gen: R-MAT spec "65536,7": want n,m,seed`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, closeSrc, err := OpenSource(tc.file, tc.rmat)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := closeSrc(); err != nil {
					t.Fatal(err)
				}
			}()
			tc.check(t, src)
		})
	}
}
