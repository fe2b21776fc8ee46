package analytics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
)

// prGoldenRow is what one PageRank-family run must reproduce: the FNV-1a
// digest of math.Float64bits over the global score vector, the iteration
// count, and the group-wide bytes sent by the kernel.
type prGoldenRow struct {
	Digest     uint64
	Iterations int
	Sent       uint64
}

// prFamilyGolden holds the rows recorded on commit 1ef93d3, where plain,
// weighted and compressed PageRank were three separate loops: random
// partitioning, Threads = 1, inproc and TCP alike. "weighted-nil" was
// recorded with UnitWeights, which the unit path must reproduce bit for bit.
// Sent was re-recorded on commit 6652938's child, which skips the refresh
// after the last iteration: every 10-iteration row sends one DirsOut halo
// exchange less, 8 B per halo slot (dangling p=2: 18,192 − 16,624 = 1,568 =
// 8 × 196 slots), the rebuild rows also one gid round less, 12 B per slot
// (26,032 − 23,680 = 2,352 = 12 × 196), and the tolerance rows, which stop
// before that refresh, not at all. No digest moved.
var prFamilyGolden = map[string]prGoldenRow{
	"dangling/compressed/p=1":    {Digest: 0xd95f9ab4e5d52c7, Iterations: 10, Sent: 0},
	"dangling/compressed/p=2":    {Digest: 0x9b0c9310d62e51d, Iterations: 10, Sent: 16624},
	"dangling/compressed/p=3":    {Digest: 0xe67c1e56f51b91d, Iterations: 10, Sent: 28116},
	"dangling/compressed/p=4":    {Digest: 0xb4d2e25ea3a665cf, Iterations: 10, Sent: 39432},
	"dangling/plain/p=1":         {Digest: 0x8ee4adb6e5a3a8b2, Iterations: 10, Sent: 0},
	"dangling/plain/p=2":         {Digest: 0x39752ec682585c88, Iterations: 10, Sent: 16624},
	"dangling/plain/p=3":         {Digest: 0xd154c6680e6d10c0, Iterations: 10, Sent: 28116},
	"dangling/plain/p=4":         {Digest: 0x95a4fcbedc1d7f79, Iterations: 10, Sent: 39432},
	"dangling/rebuild/p=1":       {Digest: 0x8ee4adb6e5a3a8b2, Iterations: 10, Sent: 0},
	"dangling/rebuild/p=2":       {Digest: 0x39752ec682585c88, Iterations: 10, Sent: 23680},
	"dangling/rebuild/p=3":       {Digest: 0xd154c6680e6d10c0, Iterations: 10, Sent: 39960},
	"dangling/rebuild/p=4":       {Digest: 0x95a4fcbedc1d7f79, Iterations: 10, Sent: 55920},
	"dangling/tolerance/p=1":     {Digest: 0xe2b023e63de78d28, Iterations: 7, Sent: 0},
	"dangling/tolerance/p=2":     {Digest: 0xa72171b724a92bd4, Iterations: 7, Sent: 11984},
	"dangling/tolerance/p=3":     {Digest: 0xe111bcd58b8e147e, Iterations: 7, Sent: 20412},
	"dangling/tolerance/p=4":     {Digest: 0x8ae29de13d3b5ae, Iterations: 7, Sent: 28824},
	"dangling/weighted-hash/p=1": {Digest: 0x56ce4ed4c41f48c7, Iterations: 10, Sent: 0},
	"dangling/weighted-hash/p=2": {Digest: 0xab4303f0ba6ab124, Iterations: 10, Sent: 16624},
	"dangling/weighted-hash/p=3": {Digest: 0x33444d1b32b1045b, Iterations: 10, Sent: 28116},
	"dangling/weighted-hash/p=4": {Digest: 0xbc83fd6e92a82a76, Iterations: 10, Sent: 39432},
	"dangling/weighted-nil/p=1":  {Digest: 0x8ee4adb6e5a3a8b2, Iterations: 10, Sent: 0},
	"dangling/weighted-nil/p=2":  {Digest: 0x39752ec682585c88, Iterations: 10, Sent: 16624},
	"dangling/weighted-nil/p=3":  {Digest: 0xd154c6680e6d10c0, Iterations: 10, Sent: 28116},
	"dangling/weighted-nil/p=4":  {Digest: 0x95a4fcbedc1d7f79, Iterations: 10, Sent: 39432},
	"er/compressed/p=1":          {Digest: 0x77729b7fbddc5555, Iterations: 10, Sent: 0},
	"er/compressed/p=2":          {Digest: 0xcd9708a02085fcc, Iterations: 10, Sent: 121036},
	"er/compressed/p=3":          {Digest: 0xbab32ecf27040d4d, Iterations: 10, Sent: 220476},
	"er/compressed/p=4":          {Digest: 0x982e6861f5fed0bb, Iterations: 10, Sent: 297480},
	"er/plain/p=1":               {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 0},
	"er/plain/p=2":               {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 121036},
	"er/plain/p=3":               {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 220476},
	"er/plain/p=4":               {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 297480},
	"er/rebuild/p=1":             {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 0},
	"er/rebuild/p=2":             {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 172840},
	"er/rebuild/p=3":             {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 314760},
	"er/rebuild/p=4":             {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 424560},
	"er/tolerance/p=1":           {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 0},
	"er/tolerance/p=2":           {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 121196},
	"er/tolerance/p=3":           {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 220956},
	"er/tolerance/p=4":           {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 298440},
	"er/weighted-hash/p=1":       {Digest: 0x932142d56b159ec5, Iterations: 10, Sent: 0},
	"er/weighted-hash/p=2":       {Digest: 0x932142d56b159ec5, Iterations: 10, Sent: 121036},
	"er/weighted-hash/p=3":       {Digest: 0x932142d56b159ec5, Iterations: 10, Sent: 220476},
	"er/weighted-hash/p=4":       {Digest: 0x932142d56b159ec5, Iterations: 10, Sent: 297480},
	"er/weighted-nil/p=1":        {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 0},
	"er/weighted-nil/p=2":        {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 121036},
	"er/weighted-nil/p=3":        {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 220476},
	"er/weighted-nil/p=4":        {Digest: 0x1a6f0ed5b8e31334, Iterations: 10, Sent: 297480},
	"wcsim/compressed/p=1":       {Digest: 0xc4ffa847b42b1d40, Iterations: 10, Sent: 0},
	"wcsim/compressed/p=2":       {Digest: 0x2165625bab2b26db, Iterations: 10, Sent: 134728},
	"wcsim/compressed/p=3":       {Digest: 0x761591a5073b7ff8, Iterations: 10, Sent: 248616},
	"wcsim/compressed/p=4":       {Digest: 0xa29d998ab3a27366, Iterations: 10, Sent: 346200},
	"wcsim/plain/p=1":            {Digest: 0x3d4e970ef03a6ba2, Iterations: 10, Sent: 0},
	"wcsim/plain/p=2":            {Digest: 0xd8262e05fddd094f, Iterations: 10, Sent: 134728},
	"wcsim/plain/p=3":            {Digest: 0x933b309c18419219, Iterations: 10, Sent: 248616},
	"wcsim/plain/p=4":            {Digest: 0x62398a354c712169, Iterations: 10, Sent: 346200},
	"wcsim/rebuild/p=1":          {Digest: 0x3d4e970ef03a6ba2, Iterations: 10, Sent: 0},
	"wcsim/rebuild/p=2":          {Digest: 0xd8262e05fddd094f, Iterations: 10, Sent: 192400},
	"wcsim/rebuild/p=3":          {Digest: 0x933b309c18419219, Iterations: 10, Sent: 354960},
	"wcsim/rebuild/p=4":          {Digest: 0x62398a354c712169, Iterations: 10, Sent: 494160},
	"wcsim/tolerance/p=1":        {Digest: 0x67c98b017a5cc9fc, Iterations: 6, Sent: 0},
	"wcsim/tolerance/p=2":        {Digest: 0xf98216e456d9e2dd, Iterations: 6, Sent: 83496},
	"wcsim/tolerance/p=3":        {Digest: 0xe1059e127395529b, Iterations: 6, Sent: 154184},
	"wcsim/tolerance/p=4":        {Digest: 0x17761053bf24e0ef, Iterations: 6, Sent: 214872},
	"wcsim/weighted-hash/p=1":    {Digest: 0xd3804d7231e7d6e0, Iterations: 10, Sent: 0},
	"wcsim/weighted-hash/p=2":    {Digest: 0x1ae3b0a3e3ed5391, Iterations: 10, Sent: 134728},
	"wcsim/weighted-hash/p=3":    {Digest: 0xbc0b984f2c7bf8bd, Iterations: 10, Sent: 248616},
	"wcsim/weighted-hash/p=4":    {Digest: 0x146f88a696ddf111, Iterations: 10, Sent: 346200},
	"wcsim/weighted-nil/p=1":     {Digest: 0x3d4e970ef03a6ba2, Iterations: 10, Sent: 0},
	"wcsim/weighted-nil/p=2":     {Digest: 0xd8262e05fddd094f, Iterations: 10, Sent: 134728},
	"wcsim/weighted-nil/p=3":     {Digest: 0x933b309c18419219, Iterations: 10, Sent: 248616},
	"wcsim/weighted-nil/p=4":     {Digest: 0x62398a354c712169, Iterations: 10, Sent: 346200},
}

// prVariants are the family members the golden pins: each entry point, the
// retained-queue ablation, and a tolerance stop.
var prVariants = []struct {
	name string
	run  func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error)
}{
	{"plain", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		return PageRank(ctx, g, DefaultPageRank())
	}},
	{"weighted-nil", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		return PageRankWeighted(ctx, g, DefaultPageRank(), nil)
	}},
	{"weighted-hash", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		return PageRankWeighted(ctx, g, DefaultPageRank(), HashWeights(5, 8))
	}},
	{"compressed", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		return PageRankCompressed(ctx, core.Compress(g), DefaultPageRank())
	}},
	{"rebuild", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		opts := DefaultPageRank()
		opts.RebuildQueues = true
		return PageRank(ctx, g, opts)
	}},
	{"tolerance", func(ctx *core.Ctx, g *core.Graph) (*PageRankResult, error) {
		return PageRank(ctx, g, PageRankOptions{Iterations: 200, Damping: 0.85, Tolerance: 1e-4})
	}},
}

// prFamilyGraphs are the golden's inputs: the WC-sim R-MAT at 1/32 scale
// (parallel edges and self-loops included), an Erdős–Rényi graph, and an
// R-MAT with every third vertex's out-edges removed, so a third of the
// vertices are dangling.
func prFamilyGraphs(t *testing.T) []testGraph {
	t.Helper()
	gs := kcoreGoldenGraphs(t)[:2] // wcsim, er
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 512, NumEdges: 4096, Seed: 3}
	el, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	var dl edge.List
	for i := 0; i < el.Len(); i++ {
		if el.Src(i)%3 != 0 {
			dl.Push(el.Src(i), el.Dst(i))
		}
	}
	return append(gs, testGraph{name: "dangling", n: spec.NumVertices, edges: dl})
}

// prFamilyRunOn runs every variant on this rank's shard of tg and records
// the rank's row in per[variant][rank], with Sent still per rank.
func prFamilyRunOn(ctx *core.Ctx, tg testGraph, per [][]prGoldenRow) error {
	g, err := buildShard(ctx, tg, partition.Random)
	if err != nil {
		return err
	}
	for i, v := range prVariants {
		ctx.Comm.ResetStats()
		res, err := v.run(ctx, g)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		sent := ctx.Comm.TakeStats().BytesSent
		global, err := core.Gather(ctx, g, res.Scores)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		var b [8]byte
		for _, s := range global {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
			h.Write(b[:])
		}
		per[i][ctx.Rank()] = prGoldenRow{Digest: h.Sum64(), Iterations: res.Iterations, Sent: sent}
	}
	return nil
}

// TestPageRankFamilyGolden pins every PageRank entry point and option to
// literals recorded before the three kernels became one: the score digest,
// the iterations run and the bytes on the wire, on three graphs × p ∈ {1,
// 2, 3, 4} × inproc/TCP.
func TestPageRankFamilyGolden(t *testing.T) {
	for _, tg := range prFamilyGraphs(t) {
		for _, p := range []int{1, 2, 3, 4} {
			for _, tcp := range []bool{false, true} {
				if tcp && (p == 1 || testing.Short()) {
					continue
				}
				tg, p, tcp := tg, p, tcp
				transport := "inproc"
				if tcp {
					transport = "tcp"
				}
				t.Run(fmt.Sprintf("%s/p=%d/%s", tg.name, p, transport), func(t *testing.T) {
					per := make([][]prGoldenRow, len(prVariants))
					for i := range per {
						per[i] = make([]prGoldenRow, p)
					}
					body := func(ctx *core.Ctx) error { return prFamilyRunOn(ctx, tg, per) }
					if tcp {
						errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, body)
						for r, err := range errs {
							if err != nil {
								t.Fatalf("rank %d: %v", r, err)
							}
						}
					} else if err := comm.RunLocal(p, func(c *comm.Comm) error { return body(core.NewCtx(c, 1)) }); err != nil {
						t.Fatal(err)
					}
					for i, v := range prVariants {
						got := per[i][0]
						for r, row := range per[i][1:] {
							if row.Digest != got.Digest || row.Iterations != got.Iterations {
								t.Fatalf("%s: rank %d disagrees with rank 0: %+v vs %+v", v.name, r+1, row, got)
							}
							got.Sent += row.Sent
						}
						key := fmt.Sprintf("%s/%s/p=%d", tg.name, v.name, p)
						if want := prFamilyGolden[key]; got != want {
							t.Errorf("%s: got %+v, want %+v", key, got, want)
						}
					}
				})
			}
		}
	}
}

// TestPageRankFamilyOptionsOnEveryEntryPoint checks that each option works
// on plain, weighted and compressed PageRank alike: Tolerance stops each
// early, which reports the iterations it ran and emits one pagerank/iter
// span for each, and RebuildQueues leaves each one's scores bitwise unchanged.
func TestPageRankFamilyOptionsOnEveryEntryPoint(t *testing.T) {
	tg := prFamilyGraphs(t)[0] // wcsim
	entries := []struct {
		name string
		run  func(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error)
	}{
		{"plain", PageRank},
		{"weighted", func(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error) {
			return PageRankWeighted(ctx, g, opts, HashWeights(5, 8))
		}},
		{"compressed", func(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error) {
			return PageRankCompressed(ctx, core.Compress(g), opts)
		}},
	}
	for _, e := range entries {
		e := e
		t.Run(e.name, func(t *testing.T) {
			err := comm.RunLocal(3, func(c *comm.Comm) error {
				tr := obs.NewTracer(c.Rank(), 4096, time.Now())
				c.SetTracer(tr)
				ctx := core.NewCtx(c, 2)
				g, err := buildShard(ctx, tg, partition.Random)
				if err != nil {
					return err
				}
				tr.Reset()
				stop, err := e.run(ctx, g, PageRankOptions{Iterations: 200, Damping: 0.85, Tolerance: 1e-4})
				if err != nil {
					return err
				}
				spans := 0
				for _, ev := range tr.Events() {
					if ev.Name == SpanPageRankIter {
						spans++
					}
				}
				if stop.Iterations == 0 || stop.Iterations >= 200 || spans != stop.Iterations {
					return fmt.Errorf("tolerance run: %d iterations, %d spans", stop.Iterations, spans)
				}
				retained, err := e.run(ctx, g, DefaultPageRank())
				if err != nil {
					return err
				}
				opts := DefaultPageRank()
				opts.RebuildQueues = true
				rebuilt, err := e.run(ctx, g, opts)
				if err != nil {
					return err
				}
				for v := range retained.Scores {
					if math.Float64bits(retained.Scores[v]) != math.Float64bits(rebuilt.Scores[v]) {
						return fmt.Errorf("RebuildQueues moved score %d: %v vs %v", v, rebuilt.Scores[v], retained.Scores[v])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
