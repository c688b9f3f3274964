package mac

import (
	"math/bits"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

// rxKey packs a link-layer packet's (src, seq) into one word.
type rxKey uint64

func packetKey(src radio.NodeID, seq uint32) rxKey { return rxKey(src)<<32 | rxKey(seq) }

// rxEntry remembers the fate of a link-layer packet (src, seq): 24 bytes,
// held by value in the rx table.
type rxEntry struct {
	// k is the packet key plus one, so the zero entry marks a free slot
	// (node 0's packet with Seq 0 has key 0).
	k  rxKey
	at time.Duration
	// decision is the verdict Classify gave the packet's first copy.
	decision  Decision
	delivered bool
	// suppressed means another node won the anycast election.
	suppressed bool
	// elect is 1 + the index in MAC.pool of the packet's pending ack
	// election, 0 when none is pending.
	elect uint16
}

// rxTable maps packet keys to entries by linear probing over a
// power-of-two array of slots, at most three quarters full. A delete
// shifts the rest of its probe run back, so no tombstones build up.
type rxTable struct {
	slots []rxEntry
	n     int
	// shift is 64 − log2(len(slots)): a key's home slot is the top bits
	// of its Fibonacci hash.
	shift uint8
	lows  uint8 // sweeps in a row that left the table under an eighth full
}

// minRxSlots is the size of a table's first slot array.
const minRxSlots, shrinkSweeps = 8, 4

func (t *rxTable) home(k rxKey) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns the slot holding key, or -1.
func (t *rxTable) find(key rxKey) int {
	if t.n == 0 {
		return -1
	}
	k, mask := key+1, len(t.slots)-1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case k:
			return i
		case 0:
			return -1
		}
	}
}

// add inserts key, which must be absent, as an otherwise zero entry and
// returns its slot. A table at its load limit first sweeps out every
// entry older than cutoff with no election pending, and doubles only if
// the sweep left it at least three quarters of the limit full; so a
// sweep that does not grow the table leaves room for a quarter of the
// limit, and its cost spreads over as many adds. After shrinkSweeps low
// sweeps in a row (under an eighth full) it halves, down to minRxSlots: a
// table grown by a burst gives memory back; a swinging load keeps its size.
func (t *rxTable) add(key rxKey, cutoff time.Duration) int {
	if limit := len(t.slots) * 3 / 4; t.n >= limit {
		t.sweep(cutoff)
		if t.lows++; t.n >= len(t.slots)/8 || len(t.slots) == minRxSlots {
			t.lows = 0
		}
		switch {
		case t.n >= limit*3/4:
			t.resize(max(2*len(t.slots), minRxSlots))
		case t.lows == shrinkSweeps:
			t.lows = 0
			t.resize(len(t.slots) / 2)
		}
	}
	k, mask := key+1, len(t.slots)-1
	i := t.home(k)
	for t.slots[i].k != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = rxEntry{k: k}
	t.n++
	return i
}

// deleteAt empties slot i and shifts back each later entry of the probe
// run that may move into the hole: one whose home is not cyclically
// after the hole.
func (t *rxTable) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].k != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j].k); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = rxEntry{}
	t.n--
}

// sweep deletes every entry heard before cutoff with no election
// pending. A delete can shift a later entry into the slot just visited,
// so that slot is looked at again; entries shifted across the end of the
// array were visited already.
func (t *rxTable) sweep(cutoff time.Duration) {
	for i := 0; i < len(t.slots); {
		if e := &t.slots[i]; e.k != 0 && e.at < cutoff && e.elect == 0 {
			t.deleteAt(i)
			continue
		}
		i++
	}
}

// resize moves every entry into a new array of size slots.
func (t *rxTable) resize(size int) {
	old := t.slots
	t.slots = make([]rxEntry, size)
	t.shift = uint8(65 - bits.Len(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.k == 0 {
			continue
		}
		i := t.home(e.k)
		for t.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// election is a pending anycast ack election: the packet it is for, the
// received copy it acks and delivers, and its event. A record in
// MAC.pool is free while its frame is nil.
type election struct {
	key   rxKey
	frame *radio.Frame
	ev    sim.EventRef
}
