package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"teleadjust/internal/sim"
)

func TestCodecRegistry(t *testing.T) {
	def, err := CodecByName("")
	if err != nil || def.Name() != "paper" {
		t.Fatalf("CodecByName(\"\") = %v, %v; want the paper codec", def, err)
	}
	if _, err := CodecByName("morse"); err == nil {
		t.Fatal("unknown codec accepted")
	} else if !strings.Contains(err.Error(), "paper") {
		t.Fatalf("unknown-codec error %q does not list the registry", err)
	}
	names := CodecNames()
	if want := []string{"paper", "treeexplorer"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("CodecNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Errorf("codec registered as %q reports Name %q", name, c.Name())
		}
		if got, want := c.Positional(), name == "paper"; got != want {
			t.Errorf("%s: Positional() = %v, want %v", name, got, want)
		}
	}
}

// TestQuasiBalancedLabels pins the treeexplorer label set: for every slot
// count the lengths differ by at most one bit and the Kraft sum is exactly
// one (the label tree wastes no space).
func TestQuasiBalancedLabels(t *testing.T) {
	for chi := 2; chi <= 33; chi++ {
		short, shortLen := quasiBalancedSplit(chi)
		// s·2^-k + (χ−s)·2^-(k+1) = 1, in units of 2^-(k+1).
		if kraft := short*2 + (chi - short); kraft != 1<<(shortLen+1) {
			t.Fatalf("chi=%d: Kraft sum %d/%d", chi, kraft, 1<<(shortLen+1))
		}
		for pos := 1; pos <= chi; pos++ {
			l, err := teLabel(pos, chi)
			if err != nil {
				t.Fatalf("teLabel(%d, %d): %v", pos, chi, err)
			}
			if l.Len() != shortLen && l.Len() != shortLen+1 {
				t.Fatalf("chi=%d pos=%d: label %v is neither %d nor %d bits",
					chi, pos, l, shortLen, shortLen+1)
			}
		}
	}
}

// TestTreeExplorerReserveJoins pins the codec's headline property: joins
// that land inside the pre-labeled reserve change nobody's label, and only
// growing χ beyond the reserve relabels.
func TestTreeExplorerReserveJoins(t *testing.T) {
	alloc := TreeExplorerCodec().NewAllocator(DefaultReserve)
	if err := alloc.AllocateInitial(4); err != nil { // χ = 4 + reserve 2 = 6
		t.Fatal(err)
	}
	before := make(map[uint16]PathCode)
	for p := uint16(1); p <= 4; p++ {
		l, err := alloc.Label(p)
		if err != nil {
			t.Fatal(err)
		}
		before[p] = l
	}
	for i := 0; i < 2; i++ { // joins 5 and 6 land in the reserve
		_, relabel, err := alloc.Add()
		if err != nil {
			t.Fatal(err)
		}
		if relabel {
			t.Fatalf("join %d within the reserve relabeled", i+1)
		}
	}
	for p, want := range before {
		if got, err := alloc.Label(p); err != nil || !got.Equal(want) {
			t.Fatalf("reserve join moved position %d: %v → %v (%v)", p, want, got, err)
		}
	}
	if _, relabel, err := alloc.Add(); err != nil || !relabel {
		t.Fatalf("join beyond the reserve: relabel=%v err=%v, want a relabel", relabel, err)
	}
}

// sortedPositions returns the live set in ascending order.
func sortedPositions(live map[uint16]bool) []uint16 {
	out := make([]uint16, 0, len(live))
	for p := range live {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkLabelInvariants asserts the codec seam's contract over the live
// position set: every label resolves, is non-empty, fits SpaceBits, the
// label set is prefix-free, and a child's full code parent.Append(label)
// strictly extends the parent (for positional codecs it must also equal the
// fixed-width Extend form the children derive on their own).
func checkLabelInvariants(t *testing.T, alloc Allocator, parent PathCode, live map[uint16]bool, positional bool) {
	t.Helper()
	space := alloc.SpaceBits()
	if space <= 0 {
		t.Fatal("SpaceBits must be positive after allocation")
	}
	positions := sortedPositions(live)
	labels := make([]PathCode, len(positions))
	for i, pos := range positions {
		label, err := alloc.Label(pos)
		if err != nil {
			t.Fatalf("Label(%d): %v", pos, err)
		}
		if label.IsEmpty() {
			t.Fatalf("position %d has an empty label", pos)
		}
		if label.Len() > space {
			t.Fatalf("position %d label %v exceeds SpaceBits %d", pos, label, space)
		}
		full, err := parent.Append(label)
		if err != nil {
			t.Fatalf("Append(%v): %v", label, err)
		}
		if !parent.IsPrefixOf(full) || full.Len() != parent.Len()+label.Len() {
			t.Fatalf("child code %v does not extend parent %v", full, parent)
		}
		if positional {
			viaExtend, err := parent.Extend(pos, space)
			if err != nil {
				t.Fatal(err)
			}
			if !viaExtend.Equal(full) {
				t.Fatalf("positional codec: Extend gives %v, Append gives %v", viaExtend, full)
			}
		}
		labels[i] = label
	}
	for i := range labels {
		for j := range labels {
			if i != j && labels[i].IsPrefixOf(labels[j]) {
				t.Fatalf("labels not prefix-free: position %d (%v) prefixes position %d (%v)",
					positions[i], labels[i], positions[j], labels[j])
			}
		}
	}
}

// TestCodecPrefixFreeRandomizedJoinLeave is the cross-codec property test:
// a long randomized join/leave sequence must keep every
// codec's label set prefix-free with every child code strictly extending
// the parent's, after every single step.
func TestCodecPrefixFreeRandomizedJoinLeave(t *testing.T) {
	parent := MustCode("010")
	for _, name := range CodecNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			codec, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			alloc := codec.NewAllocator(nil)
			if alloc.Allocated() {
				t.Fatal("fresh allocator reports Allocated")
			}
			if _, _, err := alloc.Add(); err == nil {
				t.Fatal("Add before initial allocation accepted")
			}
			if err := alloc.AllocateInitial(3); err != nil {
				t.Fatal(err)
			}
			if err := alloc.AllocateInitial(3); err == nil {
				t.Fatal("double AllocateInitial accepted")
			}
			live := map[uint16]bool{1: true, 2: true, 3: true}
			rng := sim.NewRNG(0xc0dec + uint64(len(name)))
			for step := 0; step < 300; step++ {
				switch op := rng.IntN(8); {
				case op < 5 || len(live) == 0: // join
					pos, _, err := alloc.Add()
					if err != nil {
						t.Fatalf("step %d: Add: %v", step, err)
					}
					if pos == 0 || live[pos] {
						t.Fatalf("step %d: Add returned invalid position %d", step, pos)
					}
					live[pos] = true
				default: // leave
					ids := sortedPositions(live)
					pos := ids[rng.IntN(len(ids))]
					alloc.Release(pos)
					delete(live, pos)
					if _, err := alloc.Label(pos); err == nil {
						t.Fatalf("step %d: Label of released position %d succeeded", step, pos)
					}
				}
				checkLabelInvariants(t, alloc, parent, live, codec.Positional())
			}
		})
	}
}
