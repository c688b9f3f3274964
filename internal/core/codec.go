package core

// The tree-coding codec seam. The paper's Algorithm 1 — a fixed-width
// positional bit space per parent, sized for the discovered children plus a
// reserve — is one point in the design space of prefix codes over the
// collection tree. A Codec owns exactly the decisions Algorithm 1 hardwires:
// how many label slots a parent provisions, which bit string each child
// position maps to, and what happens when the space fills up. Everything
// downstream (forwarding, recovery, the controller registry) only ever uses
// prefix relations between full path codes, so it is codec-agnostic by
// construction.
//
// Two codecs ship:
//
//   - paper: Algorithm 1 verbatim. Positions are encoded fixed-width (π
//     bits, π sized for children + reserve); space exhaustion widens π by
//     one bit. Labels are never put on the air — children derive them from
//     (position, π), exactly as before the refactor.
//   - treeexplorer: a near-optimal rooted-tree code in the spirit of
//     TreeExplorer. The χ provisioned slots get quasi-balanced
//     variable-length labels (depths differ by at most one bit), so label
//     cost tracks ⌈log2 χ⌉ instead of the paper's next power of two.
//     Reserve slots are pre-labeled, so joins within the reserve cause no
//     relabeling; exhaustion grows χ by one slot at a time.
//
// Variable-length codecs announce their labels explicitly (beacon
// allocation entries and allocation acks carry label bits); the paper codec
// stays positional and its wire image is byte-identical to the
// pre-refactor format.

import (
	"fmt"
	"math/bits"
	"sort"
)

// Codec is a tree-coding scheme: a factory for per-parent label
// allocators plus the properties the protocol needs to know about the
// scheme as a whole.
type Codec interface {
	// Name is the registry key ("paper", "treeexplorer").
	Name() string
	// Positional reports whether children can derive their label from
	// (position, space width) alone, as in Algorithm 1. Positional codecs
	// never put label bits on the air; non-positional codecs announce
	// explicit labels in allocation entries and acks.
	Positional() bool
	// NewAllocator creates the per-parent allocation state. The reserve
	// policy sizes the provisioned slot count from the discovered child
	// count (Algorithm 1's χ); codecs are free to interpret the headroom
	// their own way but must provision at least the discovered children.
	NewAllocator(reserve ReservePolicy) Allocator
}

// Allocator is one parent's label-assignment state: a set of numbered
// positions (1-based stable handles, 0 is never a valid position) with a
// prefix-free bit label per allocated position. Implementations must be
// fully deterministic: no RNG, no map-iteration-order dependence.
type Allocator interface {
	// Allocated reports whether AllocateInitial has run.
	Allocated() bool
	// AllocateInitial provisions the label space for n discovered children
	// (positions 1..n become used) plus reserve. Calling it twice is an
	// error.
	AllocateInitial(n int) error
	// Add allocates one more position (a late join), extending or
	// rebuilding the label space when no free slot remains. It returns the
	// new position and whether any previously assigned label changed
	// (fixed-width codecs: the width grew; variable-length codecs: a
	// relabel) — the caller must re-announce on relabel.
	Add() (pos uint16, relabel bool, err error)
	// Release frees a position (the child left). Freed positions may be
	// reused by later Adds; implementations must not relabel on release.
	Release(pos uint16)
	// Label returns the current bit label of an allocated position.
	Label(pos uint16) (PathCode, error)
	// SpaceBits is the label-space width π put on beacons: the fixed
	// position width for positional codecs, the maximum assigned label
	// length otherwise. It is 0 before AllocateInitial and positive after
	// (receivers use π > 0 as the "parent has allocated" signal).
	SpaceBits() int
}

// --- registry ---

// codecs is the built-in codec registry, keyed by Codec.Name.
var codecs = map[string]Codec{
	"paper":        paperCodec{},
	"treeexplorer": treeExplorerCodec{},
}

// PaperCodec returns the default codec: the paper's Algorithm 1.
func PaperCodec() Codec { return paperCodec{} }

// TreeExplorerCodec returns the quasi-balanced variable-length codec.
func TreeExplorerCodec() Codec { return treeExplorerCodec{} }

// CodecByName resolves a registry key; the empty name means the paper
// codec (the pre-refactor default).
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return paperCodec{}, nil
	}
	c, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown codec %q (have %v)", name, CodecNames())
	}
	return c, nil
}

// CodecNames lists the registered codec names in sorted order.
func CodecNames() []string {
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// --- paper codec (Algorithm 1) ---

type paperCodec struct{}

func (paperCodec) Name() string     { return "paper" }
func (paperCodec) Positional() bool { return true }
func (paperCodec) NewAllocator(reserve ReservePolicy) Allocator {
	if reserve == nil {
		reserve = DefaultReserve
	}
	return &paperAllocator{reserve: reserve, used: make(map[uint16]bool)}
}

// paperAllocator reproduces the pre-refactor ChildTable allocation
// behavior exactly: positions 1..2^π−1 (the all-zeros pattern is never
// allocated), lowest-free-first assignment, and a one-bit widening of π
// when the space fills.
type paperAllocator struct {
	reserve   ReservePolicy
	spaceBits int
	used      map[uint16]bool
}

func (a *paperAllocator) Allocated() bool { return a.spaceBits > 0 }

func (a *paperAllocator) AllocateInitial(n int) error {
	if a.Allocated() {
		return fmt.Errorf("core: initial allocation already done")
	}
	chi := a.reserve(n)
	if chi < n {
		// Every discovered child gets a position regardless of what the
		// reserve policy says; the space must fit them all.
		chi = n
	}
	if chi < 1 {
		chi = 1
	}
	// Positions are 1..2^π−1: find the smallest π that fits χ positions.
	pi := 1
	for (1<<pi)-1 < chi {
		pi++
	}
	a.spaceBits = pi
	for p := 1; p <= n; p++ {
		a.used[uint16(p)] = true
	}
	return nil
}

// nextFree returns the lowest unallocated position, or 0 when full.
func (a *paperAllocator) nextFree() uint16 {
	for p := uint16(1); int(p) < 1<<a.spaceBits; p++ {
		if !a.used[p] {
			return p
		}
	}
	return 0
}

func (a *paperAllocator) Add() (uint16, bool, error) {
	if !a.Allocated() {
		return 0, false, fmt.Errorf("core: request before initial allocation")
	}
	extended := false
	p := a.nextFree()
	if p == 0 {
		// Space extension: widen by one bit; existing positions are
		// unchanged (children re-encode them with the wider width).
		a.spaceBits++
		extended = true
		p = a.nextFree()
		if p == 0 {
			return 0, extended, fmt.Errorf("core: no free position after extension")
		}
	}
	a.used[p] = true
	return p, extended, nil
}

func (a *paperAllocator) Release(pos uint16) { delete(a.used, pos) }

func (a *paperAllocator) Label(pos uint16) (PathCode, error) {
	if !a.used[pos] {
		return PathCode{}, fmt.Errorf("core: label of unallocated position %d", pos)
	}
	return EmptyCode.Extend(pos, a.spaceBits)
}

func (a *paperAllocator) SpaceBits() int { return a.spaceBits }

// --- treeexplorer codec ---

type treeExplorerCodec struct{}

func (treeExplorerCodec) Name() string     { return "treeexplorer" }
func (treeExplorerCodec) Positional() bool { return false }
func (treeExplorerCodec) NewAllocator(reserve ReservePolicy) Allocator {
	if reserve == nil {
		reserve = DefaultReserve
	}
	return &teAllocator{reserve: reserve, used: make(map[uint16]bool)}
}

// teAllocator assigns quasi-balanced variable-length labels over χ slots:
// with χ slots, labels are ⌊log2 χ⌋ or ⌈log2 χ⌉ bits, shorter labels going
// to lower positions (real children first, reserve slots last). Reserve
// slots are labeled up front, so a join that lands in the reserve changes
// nobody's label; only growing χ beyond the reserve relabels.
type teAllocator struct {
	reserve ReservePolicy
	slots   int // χ; 0 until initial allocation
	used    map[uint16]bool
}

func (a *teAllocator) Allocated() bool { return a.slots > 0 }

func (a *teAllocator) AllocateInitial(n int) error {
	if a.Allocated() {
		return fmt.Errorf("core: initial allocation already done")
	}
	chi := a.reserve(n)
	if chi < n {
		chi = n
	}
	// A single slot would get the empty label, collapsing the child's code
	// onto its parent's: two slots minimum keeps labels non-empty.
	if chi < 2 {
		chi = 2
	}
	a.slots = chi
	for p := 1; p <= n; p++ {
		a.used[uint16(p)] = true
	}
	return nil
}

func (a *teAllocator) Add() (uint16, bool, error) {
	if !a.Allocated() {
		return 0, false, fmt.Errorf("core: request before initial allocation")
	}
	for p := uint16(1); int(p) <= a.slots; p++ {
		if !a.used[p] {
			a.used[p] = true
			return p, false, nil
		}
	}
	// All slots taken: grow one slot at a time. The quasi-balanced label
	// set for χ+1 slots shares no guarantee with the χ-slot one, so this
	// is a relabel (the study's churn metric counts it).
	a.slots++
	p := uint16(a.slots)
	a.used[p] = true
	return p, true, nil
}

func (a *teAllocator) Release(pos uint16) { delete(a.used, pos) }

// quasiBalancedLen returns the label length of slot index i (0-based) when
// χ slots are labeled with depths differing by at most one: the first s
// slots are ⌊log2 χ⌋ bits, the rest one bit longer.
func quasiBalancedSplit(chi int) (short, shortLen int) {
	k := bits.Len(uint(chi)) - 1 // ⌊log2 χ⌋
	if 1<<k == chi {
		return chi, k
	}
	// s short leaves of depth k, d = χ−s deep leaves of depth k+1 with
	// s = 2^(k+1) − χ (Kraft-tight).
	return 1<<(k+1) - chi, k
}

func (a *teAllocator) Label(pos uint16) (PathCode, error) {
	if !a.used[pos] {
		return PathCode{}, fmt.Errorf("core: label of unallocated position %d", pos)
	}
	return teLabel(int(pos), a.slots)
}

// teLabel computes the canonical quasi-balanced label of 1-based slot pos
// among chi slots: codewords assigned in canonical order (all short ones
// first, each the previous plus one, deep ones continuing with a one-bit
// shift).
func teLabel(pos, chi int) (PathCode, error) {
	short, shortLen := quasiBalancedSplit(chi)
	i := pos - 1 // canonical index
	if i < short {
		return codeFromValue(uint64(i), shortLen)
	}
	// First deep codeword = (short) << 1; deep index offsets from there.
	return codeFromValue(uint64(short)<<1+uint64(i-short), shortLen+1)
}

// codeFromValue builds a label from the low `width` bits of v (big-endian
// within the label, consistent with PathCode.Extend).
func codeFromValue(v uint64, width int) (PathCode, error) {
	if width <= 0 || width > MaxCodeBits {
		return PathCode{}, fmt.Errorf("core: invalid label width %d", width)
	}
	if width < 64 && v >= 1<<width {
		return PathCode{}, fmt.Errorf("core: label value %d does not fit in %d bits", v, width)
	}
	c := PathCode{bits: make([]byte, (width+7)/8), n: width}
	for i := 0; i < width; i++ {
		if v>>(width-1-i)&1 == 1 {
			c.bits[i/8] |= 1 << (7 - i%8)
		}
	}
	return c, nil
}

func (a *teAllocator) SpaceBits() int {
	if a.slots == 0 {
		return 0
	}
	short, shortLen := quasiBalancedSplit(a.slots)
	if short == a.slots {
		return shortLen
	}
	return shortLen + 1
}
