package analytics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// goldenJobs is one normalized job per non-mutating kind, every parameter
// its row reads set away from the default.
func goldenJobs() []Job {
	return []Job{
		{Analytic: JobBFS, Dir: "und"},
		{Analytic: JobSSSP, MaxWeight: 16, WeightSeed: 3},
		{Analytic: JobHarmonic},
		{Analytic: JobPageRank, Iterations: 5, Damping: 0.8},
		{Analytic: JobPageRankWeighted, Iterations: 5, MaxWeight: 16, WeightSeed: 3},
		{Analytic: JobLabelProp, Iterations: 3, RandomTies: true, TieSeed: 9},
		{Analytic: JobWCC},
		{Analytic: JobKCore},
	}
}

// jobAnswerGolden is the SHA-256 of goldenAnswers' text per rank count,
// recorded before the job table replaced the per-kind switches. The
// answers are identical over both transports.
var jobAnswerGolden = map[int]string{
	1: "76621542b2b4acd7aa861283903633059b6009663ab9434a42e61cb4781c7642",
	2: "bdfa2409e200a54f535f64b00bac5770da7f8e0bc7a71655c176609da465b4cf",
	3: "b8d4e50f4a310c5a9cea9977f12d66af286e2075afb3675a8292d4da11395cf1",
}

// goldenAnswers runs every golden job on a small R-MAT shard: each kind
// solo from each of three sources, and for the source-rooted kinds the
// three-source batch projected with ForSource. It returns one line of
// Canonical() bytes per answer.
func goldenAnswers(ctx *core.Ctx) (string, error) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 9, NumEdges: 1 << 12, Seed: 13}
	src := core.SpecSource{Spec: spec}
	pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 7)
	if err != nil {
		return "", err
	}
	g, _, err := core.Build(ctx, src, pt)
	if err != nil {
		return "", err
	}
	roots := []uint32{0, 77, 300}
	var b strings.Builder
	for _, kind := range goldenJobs() {
		run := func(sources []uint32) (*JobResult, error) {
			j := kind
			j.Sources = sources
			j.Normalize()
			return Run(ctx, g, &j)
		}
		if !kind.SourceRooted() {
			res, err := run(nil)
			if err != nil {
				return "", fmt.Errorf("%s: %w", kind.Analytic, err)
			}
			fmt.Fprintf(&b, "solo %s\n", res.Canonical())
			continue
		}
		for _, s := range roots {
			res, err := run([]uint32{s})
			if err != nil {
				return "", fmt.Errorf("%s from %d: %w", kind.Analytic, s, err)
			}
			fmt.Fprintf(&b, "solo %s\n", res.Canonical())
		}
		batch, err := run(roots)
		if err != nil {
			return "", fmt.Errorf("%s batch: %w", kind.Analytic, err)
		}
		for _, s := range roots {
			fmt.Fprintf(&b, "batch %s\n", batch.ForSource(s).Canonical())
		}
	}
	return b.String(), nil
}

// TestJobAnswersGolden pins every non-mutating kind's Canonical() answer,
// solo and batched, at p = 1, 2, 3 on both transports.
func TestJobAnswersGolden(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			onBothTransports(t, p, func(ctx *core.Ctx) error {
				text, err := goldenAnswers(ctx)
				if err != nil || ctx.Rank() != 0 {
					return err
				}
				sum := sha256.Sum256([]byte(text))
				if got := hex.EncodeToString(sum[:]); got != jobAnswerGolden[p] {
					return fmt.Errorf("answers digest %s, want %s; answers:\n%s", got, jobAnswerGolden[p], text)
				}
				return nil
			})
		})
	}
}

// TestJobTableComplete: every Job* constant has a row and every row is a
// constant; an unknown name fails Validate; every Job field but Analytic
// belongs to a parameter, so Normalize clears whatever a kind does not read.
func TestJobTableComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "job.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Job") {
						continue
					}
					name, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatalf("%s: %v", id.Name, err)
					}
					names[name] = true
					if _, ok := kinds[name]; !ok {
						t.Errorf("%s (%q) has no row in the job table", id.Name, name)
					}
				}
			}
		}
	}
	for name, k := range kinds {
		if !names[name] {
			t.Errorf("row %q is not a Job* constant", name)
		}
		if k.same&^k.reads != 0 {
			t.Errorf("row %q: answer-invariant parameters it does not read", name)
		}
		if n := btoi(k.mutating) + btoi(k.prologue != nil) + btoi(k.run != nil); n != 1 {
			t.Errorf("row %q: %d of mutating, prologue and run set, want 1", name, n)
		}
		if (k.prologue != nil) != (k.reads&fSources != 0) {
			t.Errorf("row %q: source-rooted iff it reads sources", name)
		}
	}
	if err := (&Job{Analytic: "betweenness"}).Validate(16); err == nil {
		t.Error("unknown analytic accepted")
	}

	// Every parameter cleared leaves nothing but Analytic, or a field has
	// no parameter; and Normalize leaves each unread parameter cleared.
	full := func(name string) Job {
		j := Job{Analytic: name}
		v := reflect.ValueOf(&j).Elem()
		for i := 1; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Slice:
				fv.Set(reflect.MakeSlice(fv.Type(), 1, 1))
			case reflect.String:
				fv.SetString("x")
			case reflect.Bool:
				fv.SetBool(true)
			case reflect.Int:
				fv.SetInt(1)
			case reflect.Uint64:
				fv.SetUint(1)
			case reflect.Float64:
				fv.SetFloat(0.5)
			default:
				t.Fatalf("Job.%s: unhandled kind %v", v.Type().Field(i).Name, fv.Kind())
			}
		}
		return j
	}
	j := full(JobBFS)
	for _, p := range params {
		p.clear(&j)
	}
	if !reflect.DeepEqual(j, Job{Analytic: JobBFS}) {
		t.Errorf("fields outside every parameter: %+v", j)
	}
	for name, k := range kinds {
		j := full(name)
		j.Normalize()
		for _, p := range params {
			if c := j; k.reads&p.f == 0 {
				if p.clear(&c); !reflect.DeepEqual(c, j) {
					t.Errorf("row %q: Normalize keeps an unread parameter: %+v", name, j)
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
