package core

// Fuzz test for the codec seam: whatever op sequence arrives, no allocator
// may panic, hand out a colliding position, or break the prefix-free label
// invariant the forwarding plane depends on. Seed inputs live both in
// f.Add calls and in the committed corpus under testdata/fuzz/FuzzCodecLabels/.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nthLive returns the i-th (mod size) live position in ascending order —
// a deterministic way to turn a fuzz byte into a victim position.
func nthLive(live map[uint16]bool, i int) uint16 {
	ids := sortedPositions(live)
	return ids[i%len(ids)]
}

// FuzzCodecLabels drives one registered codec's allocator through an
// arbitrary join/leave sequence, re-checking the seam's invariants (via
// checkLabelInvariants) after every op. An op byte leaves when its low two
// bits are 2 and joins otherwise.
func FuzzCodecLabels(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0x00, 0x41, 0x82, 0x10})
	f.Add(uint8(1), uint8(1), []byte{0x00, 0x00, 0x01, 0x81, 0x02})
	f.Add(uint8(2), uint8(5), []byte{0x40, 0xC2, 0x00, 0x23, 0x07, 0xFF})
	f.Fuzz(func(t *testing.T, codecSel, initial uint8, ops []byte) {
		names := CodecNames()
		codec, err := CodecByName(names[int(codecSel)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		alloc := codec.NewAllocator(nil)
		n := int(initial % 16)
		if err := alloc.AllocateInitial(n); err != nil {
			t.Fatal(err)
		}
		live := map[uint16]bool{}
		for p := 1; p <= n; p++ {
			live[uint16(p)] = true
		}
		if len(ops) > 96 {
			ops = ops[:96] // bound the per-exec cost of the O(n²) prefix check
		}
		parent := RootCode()
		for _, op := range ops {
			switch op & 3 {
			case 2: // leave
				if len(live) == 0 {
					continue
				}
				pos := nthLive(live, int(op>>2))
				alloc.Release(pos)
				delete(live, pos)
				if _, err := alloc.Label(pos); err == nil {
					t.Fatalf("Label of released position %d succeeded", pos)
				}
			default: // join
				if len(live) >= 64 {
					continue
				}
				pos, _, err := alloc.Add()
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				if pos == 0 || live[pos] {
					t.Fatalf("Add returned invalid position %d", pos)
				}
				live[pos] = true
			}
			checkLabelInvariants(t, alloc, parent, live, codec.Positional())
		}
	})
}

// TestCodecFuzzCorpusTargets keeps the committed FuzzCodecLabels corpus
// aimed where its file names say: each seed is named "<codec>-<case>", and
// its first argument must still select that codec through CodecNames, so
// a registry change cannot silently retarget a seed at another codec.
func TestCodecFuzzCorpusTargets(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCodecLabels", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed FuzzCodecLabels corpus")
	}
	names := CodecNames()
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus file", path)
		}
		lit, ok := strings.CutPrefix(lines[1], "byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		unq, err := strconv.Unquote(lit)
		sel := []rune(unq)
		if !ok || !ok2 || err != nil || len(sel) != 1 || sel[0] > 0xff {
			t.Fatalf("%s: first argument %q is not a byte literal", path, lines[1])
		}
		want, _, _ := strings.Cut(filepath.Base(path), "-")
		if got := names[int(sel[0])%len(names)]; got != want {
			t.Errorf("%s: selector %d drives codec %q, name says %q", path, sel[0], got, want)
		}
	}
}
