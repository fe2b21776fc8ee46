package analytics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
)

// colorGoldenRow is what the paper's WCC, approximate k-core, SCC and
// largest-SCC analytics must reproduce on one layout: FNV-1a digests of the
// gathered global label, bound and membership vectors, and the scalars each
// result reports. Trimmed is the group-wide sum of the per-rank counts.
type colorGoldenRow struct {
	WCC                 uint64
	Components, Largest uint64
	CorenessUB          uint64
	SCC                 uint64
	SCCs, LargestSCC    uint64
	Member, MemberSize  uint64
	Pivot               uint32
	Trimmed             uint64
}

// literal prints the row the way colorGolden holds it.
func (r colorGoldenRow) literal() string {
	return fmt.Sprintf("{WCC: %#x, Components: %d, Largest: %d, CorenessUB: %#x, SCC: %#x, SCCs: %d, LargestSCC: %d, Member: %#x, MemberSize: %d, Pivot: %d, Trimmed: %d}",
		r.WCC, r.Components, r.Largest, r.CorenessUB, r.SCC, r.SCCs, r.LargestSCC, r.Member, r.MemberSize, r.Pivot, r.Trimmed)
}

// colorGoldenLevels is the k-core threshold count of the golden: 2^9 = 512
// is past wcsim's degeneracy (449), so the top levels cut an empty core.
const colorGoldenLevels = 9

// colorGolden holds the rows recorded on commit 6652938, where WCC's,
// KCoreApprox's and SCC's colorings were full-sweep loops over the halo
// Exchange, the peels shipped one global id per edge and LargestSCC swept
// with its own traversal: random and vertex-block partitioning, identical
// there for inproc and TCP and for Threads 1 and 4. Pivots and WCC roots
// break degree ties by rank, so rows are per layout.
var colorGolden = map[string]colorGoldenRow{
	"chain/p=1/random":            {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=1/vertex-block":      {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=2/random":            {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=2/vertex-block":      {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=3/random":            {WCC: 0xa41ca2053d793a25, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=3/vertex-block":      {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=4/random":            {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"chain/p=4/vertex-block":      {WCC: 0x40b4c7b1d593d365, Components: 1, Largest: 8, CorenessUB: 0xa41ca2053d793a25, SCC: 0x66b04c3323ce3f25, SCCs: 8, LargestSCC: 1, Member: 0xc8210784d8af5a5, MemberSize: 0, Pivot: 4294967295, Trimmed: 8},
	"cycle+tail/p=1/random":       {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=1/vertex-block": {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=2/random":       {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=2/vertex-block": {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=3/random":       {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=3/vertex-block": {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=4/random":       {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"cycle+tail/p=4/vertex-block": {WCC: 0xdf0449071a215a7, Components: 2, Largest: 5, CorenessUB: 0x8036be80b3d32e91, SCC: 0xd54e2b264f986693, SCCs: 5, LargestSCC: 3, Member: 0x593aa09a1d0f674, MemberSize: 3, Pivot: 2, Trimmed: 4},
	"er/p=1/random":               {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=1/vertex-block":         {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=2/random":               {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=2/vertex-block":         {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=3/random":               {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=3/vertex-block":         {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=4/random":               {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"er/p=4/vertex-block":         {WCC: 0xe36c170e3bdcd8b5, Components: 1, Largest: 150, CorenessUB: 0xc2651785f273fb45, SCC: 0x67c226320aa0e68f, SCCs: 8, LargestSCC: 143, Member: 0x11de7f8b1f5ca844, MemberSize: 143, Pivot: 39, Trimmed: 7},
	"multi/p=1/random":            {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=1/vertex-block":      {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=2/random":            {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=2/vertex-block":      {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=3/random":            {WCC: 0xe8fcffd94af0a12, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x5707aea110e1d5, MemberSize: 2, Pivot: 9, Trimmed: 12},
	"multi/p=3/vertex-block":      {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=4/random":            {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"multi/p=4/vertex-block":      {WCC: 0x233878938cfdcc85, Components: 13, Largest: 5, CorenessUB: 0xadc506f347eba743, SCC: 0x9f4e868939c15ab4, SCCs: 16, LargestSCC: 3, Member: 0x4b2209cd2fabaad4, MemberSize: 3, Pivot: 4, Trimmed: 12},
	"rmat/p=1/random":             {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=1/vertex-block":       {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=2/random":             {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=2/vertex-block":       {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=3/random":             {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=3/vertex-block":       {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=4/random":             {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"rmat/p=4/vertex-block":       {WCC: 0xf7abe3c4fb989d38, Components: 26, Largest: 175, CorenessUB: 0xc9d3b7ea44e23f45, SCC: 0xa9a314b9d9e2339, SCCs: 60, LargestSCC: 141, Member: 0xe867a92e7e0f5084, MemberSize: 141, Pivot: 0, Trimmed: 59},
	"selfloops/p=1/random":        {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"selfloops/p=1/vertex-block":  {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"selfloops/p=2/random":        {WCC: 0x2c65c393122b9ff5, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0x8c6b178abbf5e364, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 1, Trimmed: 2},
	"selfloops/p=2/vertex-block":  {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"selfloops/p=3/random":        {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"selfloops/p=3/vertex-block":  {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"selfloops/p=4/random":        {WCC: 0x2c65c393122b9ff5, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0x8c6b178abbf5e364, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 1, Trimmed: 2},
	"selfloops/p=4/vertex-block":  {WCC: 0x862055baca727f85, Components: 2, Largest: 2, CorenessUB: 0x53f4e6f88ca97c05, SCC: 0xe625a9b2743cc2f4, SCCs: 3, LargestSCC: 2, Member: 0x2e658d91a8b884d5, MemberSize: 2, Pivot: 0, Trimmed: 2},
	"star/p=1/random":             {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=1/vertex-block":       {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=2/random":             {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=2/vertex-block":       {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=3/random":             {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=3/vertex-block":       {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=4/random":             {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"star/p=4/vertex-block":       {WCC: 0x943cf28841434e75, Components: 1, Largest: 9, CorenessUB: 0xaae216f6fc719417, SCC: 0xec449f96f087d47d, SCCs: 9, LargestSCC: 1, Member: 0x943cf28841434e75, MemberSize: 0, Pivot: 4294967295, Trimmed: 9},
	"wcsim/p=1/random":            {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=1/vertex-block":      {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=2/random":            {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=2/vertex-block":      {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=3/random":            {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=3/vertex-block":      {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=4/random":            {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
	"wcsim/p=4/vertex-block":      {WCC: 0x372b2e1703a14c45, Components: 164, Largest: 1885, CorenessUB: 0x69ce3046f61994f2, SCC: 0x2a8cc6203e9dd542, SCCs: 402, LargestSCC: 1647, Member: 0xa435d622c6bbbd04, MemberSize: 1647, Pivot: 0, Trimmed: 401},
}

// colorGoldenGraphs are the analytics tests' graphs plus the WC-sim R-MAT at
// 1/32 scale, where the colorings take several hops.
func colorGoldenGraphs(t *testing.T) []testGraph {
	return append(makeTestGraphs(t), kcoreGoldenGraphs(t)[0])
}

// digestGlobal gathers a per-owned-vertex vector and returns the FNV-1a
// digest of its global form, little-endian, on every rank.
func digestGlobal(ctx *core.Ctx, g *core.Graph, local []uint32) (uint64, error) {
	global, err := core.Gather(ctx, g, local)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var b [4]byte
	for _, x := range global {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	return h.Sum64(), nil
}

// colorRowOn runs the four analytics on this rank's shard and returns the
// golden row.
func colorRowOn(ctx *core.Ctx, g *core.Graph) (row colorGoldenRow, err error) {
	wc, err := WCC(ctx, g)
	if err != nil {
		return row, err
	}
	if row.WCC, err = digestGlobal(ctx, g, wc.Labels); err != nil {
		return row, err
	}
	row.Components, row.Largest = wc.NumComponents, wc.LargestSize
	kc, err := KCoreApprox(ctx, g, colorGoldenLevels)
	if err != nil {
		return row, err
	}
	if row.CorenessUB, err = digestGlobal(ctx, g, kc.CorenessUB); err != nil {
		return row, err
	}
	sc, err := SCC(ctx, g)
	if err != nil {
		return row, err
	}
	if row.SCC, err = digestGlobal(ctx, g, sc.Labels); err != nil {
		return row, err
	}
	row.SCCs, row.LargestSCC = sc.NumComponents, sc.LargestSize
	ls, err := LargestSCC(ctx, g)
	if err != nil {
		return row, err
	}
	member := make([]uint32, g.NLoc)
	for v, in := range ls.InLargest {
		if in {
			member[v] = 1
		}
	}
	if row.Member, err = digestGlobal(ctx, g, member); err != nil {
		return row, err
	}
	row.MemberSize, row.Pivot = ls.Size, ls.Pivot
	row.Trimmed, err = comm.Allreduce(ctx.Comm, ls.Trimmed, comm.OpSum)
	return row, err
}

// TestColoringKernelsGolden pins WCC, KCoreApprox, SCC and LargestSCC to
// literals recorded before their colorings, peels and sweeps moved onto the
// shared claim round and the BFS runner, on the analytics graphs and wcsim ×
// p ∈ {1, 2, 3, 4} × {random, vertex-block} × inproc/TCP × Threads {1, 4}.
// Every field is a fixed point of the kernel (a min or max labelling, a peel's
// survivors, the pivot's SCC), so none may move.
func TestColoringKernelsGolden(t *testing.T) {
	for _, tg := range colorGoldenGraphs(t) {
		for _, p := range []int{1, 2, 3, 4} {
			for _, kind := range []partition.Kind{partition.Random, partition.VertexBlock} {
				key := fmt.Sprintf("%s/p=%d/%v", tg.name, p, kind)
				for _, tcp := range []bool{false, true} {
					if tcp && (p == 1 || testing.Short()) {
						continue
					}
					transport := "inproc"
					if tcp {
						transport = "tcp"
					}
					t.Run(key+"/"+transport, func(t *testing.T) {
						rows := make([][2]colorGoldenRow, p)
						body := func(ctx *core.Ctx) error {
							g, err := buildShard(ctx, tg, kind)
							if err != nil {
								return err
							}
							for i, threads := range []int{1, 4} {
								row, err := colorRowOn(core.NewCtx(ctx.Comm, threads), g)
								if err != nil {
									return fmt.Errorf("threads=%d: %w", threads, err)
								}
								rows[ctx.Rank()][i] = row
							}
							return nil
						}
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
						got := rows[0][0]
						for r := range rows {
							for i, row := range rows[r] {
								if row != got {
									t.Fatalf("rank %d, run %d disagrees with rank 0's Threads=1 run:\n%+v\n%+v", r, i, row, got)
								}
							}
						}
						if want, ok := colorGolden[key]; !ok || got != want {
							t.Errorf("row differs from the golden; got\n\t%q: %s,", key, got.literal())
						}
					})
				}
			}
		}
	}
}

// countSpans returns how many spans named name tr holds, and how many of
// them have arg 0: for a coloring's hops, how many colorings ran.
func countSpans(tr *obs.Tracer, name string) (n, first uint64) {
	for _, e := range tr.Events() {
		if e.Name == name {
			n++
			if e.Arg == 0 {
				first++
			}
		}
	}
	return n, first
}

// TestColoringCollectives pins the communication structure of WCC,
// KCoreApprox and LargestSCC as equalities, from the transport-round counter
// and the kernels' own spans. Every run starts on an empty plan cache, so it
// builds the DirsBoth halo once: the leading 1 below is that gid round.
//
//   - WCC: the root's MaxLoc, the BFS phase's 1 + 2·levels, one claim round
//     per coloring hop, and the census's four (the representatives'
//     Allreduce, the label counts' Alltoallv, the largest label's two
//     Allgathers): 1 + 1 + (1 + 2·levels) + hops + 4.
//   - KCoreApprox: one claim round per peel round — its control words carry
//     the deaths and whether anything survived, so no Allreduce ends a peel
//     or opens a cut — and, at each level with survivors, one claim round per
//     coloring hop plus the cut's three census collectives: 1 + rounds +
//     hops + 3·cuts.
//   - LargestSCC: one claim round per trim round, the pivot's MaxLoc, a
//     forward and a backward BFS from the pivot (1 + 2·levels each, on the
//     trim's halo) and the size's Allreduce: 1 + rounds + 1 + (1 + 2·Lf) +
//     (1 + 2·Lb) + 1.
func TestColoringCollectives(t *testing.T) {
	graphs := colorGoldenGraphs(t)
	for _, tg := range []testGraph{graphs[4], graphs[6], graphs[7]} { // rmat, multi, wcsim
		for _, p := range []int{1, 2, 3, 4} {
			for _, kind := range []partition.Kind{partition.Random, partition.VertexBlock} {
				t.Run(fmt.Sprintf("%s/p=%d/%v", tg.name, p, kind), func(t *testing.T) {
					err := comm.RunLocal(p, func(c *comm.Comm) error {
						tr := obs.NewTracer(c.Rank(), 1<<16, time.Now())
						c.SetTracer(tr)
						ctx := core.NewCtx(c, 1)
						g, err := buildShard(ctx, tg, kind)
						if err != nil {
							return err
						}
						// collectives runs body on an empty plan cache and returns
						// the transport rounds it took; the trace holds its spans.
						collectives := func(body func() error) (uint64, error) {
							ctx.Plans = core.NewPlans(nil)
							tr.Reset()
							c.ResetStats()
							if err := body(); err != nil {
								return 0, err
							}
							if tr.Dropped() != 0 {
								return 0, fmt.Errorf("the trace dropped %d spans", tr.Dropped())
							}
							return c.TakeStats().Exchanges, nil
						}

						var wc *WCCResult
						got, err := collectives(func() (err error) { wc, err = WCC(ctx, g); return err })
						if err != nil {
							return err
						}
						hops, _ := countSpans(tr, SpanWCCColorRound)
						levels := wc.Traversal.PushSteps + wc.Traversal.PullSteps
						if want := 1 + 1 + (1 + 2*levels) + hops + 4; got != want {
							return fmt.Errorf("WCC: %d collectives for %d BFS levels and %d hops, want %d", got, levels, hops, want)
						}

						got, err = collectives(func() error { _, err := KCoreApprox(ctx, g, colorGoldenLevels); return err })
						if err != nil {
							return err
						}
						rounds, _ := countSpans(tr, SpanKCorePeelRound)
						hops, cuts := countSpans(tr, SpanColorHop)
						if want := 1 + rounds + hops + 3*cuts; got != want {
							return fmt.Errorf("KCoreApprox: %d collectives for %d peel rounds, %d hops and %d cuts, want %d", got, rounds, hops, cuts, want)
						}

						var ls *LargestSCCResult
						got, err = collectives(func() (err error) { ls, err = LargestSCC(ctx, g); return err })
						if err != nil {
							return err
						}
						rounds, _ = countSpans(tr, SpanSCCTrimRound)
						var sweeps uint64
						if ls.Size > 0 { // the pivot's two traversals ran: replay them for their levels
							for _, dir := range []Dir{Forward, Backward} {
								b, err := BFS(ctx, g, ls.Pivot, dir)
								if err != nil {
									return err
								}
								sweeps += 1 + 2*uint64(b.Depth+1)
							}
						}
						if want := 1 + rounds + 1 + sweeps + 1; got != want {
							return fmt.Errorf("LargestSCC: %d collectives for %d trim rounds and %d in the sweeps, want %d", got, rounds, sweeps, want)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// le64 is the wire form of a segment of 64-bit words.
func le64(words ...uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// forgeRound returns a forge that replaces the message of transport round
// round with the words seg.
func forgeRound(round int, seg ...uint64) func(int, []byte) []byte {
	return func(r int, _ []byte) []byte {
		if r != round {
			return nil
		}
		return le64(seg...)
	}
}

// wantForgeryOutcome checks a forged run: the forgery was sent, and either
// every rank returned the honest answer or rank 0 failed with a
// corrupt-message CommError naming the forger.
func wantForgeryOutcome(t *testing.T, errs []error, forged int, honest bool) {
	t.Helper()
	if forged == 0 {
		t.Fatal("the forger never sent its forgery")
	}
	if !honest {
		wantCorruptFrom1(t, errs)
		return
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestColoringRejectsForgedRounds forges rank 1's first claim round after
// the halo's gid round (transport round 1) on forgedPath, whose segments
// between the two ranks are one slot each, for the wire fields of the
// coloring and of k-core's peel. Single-stage WCC's honest segment for rank
// 0 is a bare control word (rank 1's best label, 32, does not beat vertex
// 31's bound); level 1 of KCoreApprox kills all of rank 1's 32 vertices and
// takes 1 from vertex 31, which rank 0 has already peeled with 1 left.
// KCoreExact's first run only finds the least degree, so the forged round
// reaches vertex 31 alive with 2 left, one of them its owned neighbour 30's.
// A label past the graph, a claim on a slot past the one-slot queue, claims
// from a rank whose control word says it claimed nothing, a zero count, and
// a count above what the counter has left or above what its ghost
// neighbours still owe it fail the query with a corrupt-message CommError
// naming the forger. A control word that announces claims or deaths it does
// not carry changes nothing a rank acts on, and every rank gets the honest
// answer. A forger that sends well-formed but wrong values is out of scope.
func TestColoringRejectsForgedRounds(t *testing.T) {
	tg := forgedPath()
	wantWCC := seq.WCC(tg.ref)
	wantUB := seq.CorenessUB(tg.ref, 3)
	wcc := func(ctx *core.Ctx, g *core.Graph) error {
		res, err := WCCSingleStage(ctx, g)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.Labels)
		if err != nil {
			return err
		}
		return samePartition(global, wantWCC)
	}
	kcore := func(ctx *core.Ctx, g *core.Graph) error {
		res, err := KCoreApprox(ctx, g, 3)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.CorenessUB)
		if err != nil {
			return err
		}
		if !slices.Equal(global, wantUB) {
			return fmt.Errorf("coreness bounds %v, want %v", global, wantUB)
		}
		return nil
	}
	wantCore := seq.Coreness(tg.ref)
	exact := func(ctx *core.Ctx, g *core.Graph) error {
		res, err := KCoreExact(ctx, g)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.Coreness)
		if err != nil {
			return err
		}
		if !slices.Equal(global, wantCore) {
			return fmt.Errorf("coreness %v, want %v", global, wantCore)
		}
		return nil
	}
	claimed := func(n int) uint64 { return ctlWord(n, ctlNone) }
	for _, f := range []struct {
		name   string
		run    func(*core.Ctx, *core.Graph) error
		seg    []uint64
		honest bool
	}{
		{"label past the graph", wcc, []uint64{claimed(1), 64}, false},
		{"claim past the queue", wcc, []uint64{claimed(1), 1<<32 | 5}, false},
		{"label from a rank that claimed nothing", wcc, []uint64{claimed(0), 5}, false},
		{"claims announced but not sent", wcc, []uint64{claimed(3)}, true},
		{"zero decrement", kcore, []uint64{claimed(32), 0}, false},
		{"decrement beyond the remaining degree", kcore, []uint64{claimed(32), 2}, false},
		{"deaths without their claims", kcore, []uint64{claimed(40)}, true},
		{"decrement beyond what the ghosts owe", exact, []uint64{claimed(32), 2}, false},
	} {
		t.Run(f.name, func(t *testing.T) {
			errs, forged := runForged(tg, forgeRound(1, f.seg...), f.run)
			wantForgeryOutcome(t, errs, forged, f.honest)
		})
	}
}

// TestLabelCountsRejectForgedRounds forges the one round of
// aggregateLabelCounts, the census behind WCC, SCC, KCoreApprox's cut and
// the community count. Every vertex carries label 0, so rank 1's honest
// segment for rank 0, the label's owner, is the pair (0, 32). An odd
// segment, a label past the graph or owned by another rank, and a count of
// zero or above the vertex count fail the census with a corrupt-message
// CommError naming the forger instead of being added in.
func TestLabelCountsRejectForgedRounds(t *testing.T) {
	tg := forgedPath()
	for _, f := range []struct {
		name string
		seg  []uint64
	}{
		{"odd segment", []uint64{0, 32, 0}},
		{"label past the graph", []uint64{64, 32}},
		{"label owned by another rank", []uint64{40, 32}},
		{"zero count", []uint64{0, 0}},
		{"count above the vertex count", []uint64{0, 65}},
	} {
		t.Run(f.name, func(t *testing.T) {
			errs, forged := runForged(tg, forgeRound(0, f.seg...), func(ctx *core.Ctx, g *core.Graph) error {
				_, err := aggregateLabelCounts(ctx, g, make([]uint32, g.NLoc), nil)
				return err
			})
			wantForgeryOutcome(t, errs, forged, false)
		})
	}
}

// TestTopCommunitiesRejectsForgedRounds forges TopCommunities' two rounds
// after the halo's gid round and its ghost refresh. Every vertex carries
// label 0, which rank 0 owns, so rank 1's honest quad segment for rank 0 is
// the one record (0, 32, 8, 0) and its top-1 segment is empty. A quad
// segment that is not whole records, a label past the graph or owned by
// another rank, a vertex count above the graph's or a community with no
// vertices, and a top-k segment longer than k records or naming a
// community its sender does not own or with no vertices, fail the query
// with a corrupt-message CommError naming the forger.
func TestTopCommunitiesRejectsForgedRounds(t *testing.T) {
	const quads, topK = 2, 3
	tg := forgedPath()
	for _, f := range []struct {
		name  string
		round int
		seg   []uint64
	}{
		{"ragged quads", quads, []uint64{0, 32, 8}},
		{"quad label past the graph", quads, []uint64{64, 1, 0, 0}},
		{"quad label owned by another rank", quads, []uint64{40, 1, 0, 0}},
		{"quad vertex count above the graph", quads, []uint64{0, 33, 8, 0}},
		{"community with no vertices", quads, []uint64{0, 32, 8, 0, 5, 0, 0, 1}},
		{"ragged top-k", topK, []uint64{40, 1, 0}},
		{"top-k longer than k", topK, []uint64{40, 1, 0, 0, 41, 1, 0, 0}},
		{"top-k label owned by the receiver", topK, []uint64{0, 32, 8, 0}},
		{"top-k label past the graph", topK, []uint64{64, 1, 0, 0}},
		{"top-k community with no vertices", topK, []uint64{40, 0, 0, 0}},
	} {
		t.Run(f.name, func(t *testing.T) {
			errs, forged := runForged(tg, forgeRound(f.round, f.seg...), func(ctx *core.Ctx, g *core.Graph) error {
				_, err := TopCommunities(ctx, g, make([]uint32, g.NLoc), 1)
				return err
			})
			wantForgeryOutcome(t, errs, forged, false)
		})
	}
}
