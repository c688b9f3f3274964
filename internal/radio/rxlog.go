package radio

import "math"

// rxLog is the interference log of one reception: every interferer in
// air-set order — the frames on the air when the reception locked, then
// each one that arrives — with the folds it was part of. A fold is the
// interference sum the receive path takes at the lock and at each
// arrival; fold 0 is the first with an interferer to sum (the folds
// before it are 0 and cannot raise the worst), and each later arrival
// takes the next. Logging costs O(1) per arrival and departure; from the
// log, worst replays the exact worst interference in dbmToMW powers. The
// medium pools logs.
type rxLog struct {
	entries []rxLogEntry
	// folds is the number of folds taken, the index of the next one.
	folds int32
}

// rxLogEntry is one interferer: its received power and the folds it was
// part of, [arrive, depart).
type rxLogEntry struct {
	dbm            float64
	arrive, depart int32
}

// len is the number of interferers logged; a nil log has none.
func (l *rxLog) len() int {
	if l == nil {
		return 0
	}
	return len(l.entries)
}

// add logs an interferer that is part of the next fold and returns its
// slot.
func (l *rxLog) add(dbm float64) int32 {
	l.entries = append(l.entries, rxLogEntry{dbm: dbm, arrive: l.folds, depart: math.MaxInt32})
	return int32(len(l.entries) - 1)
}

// fold records a fold over the interferers on the air.
func (l *rxLog) fold() { l.folds++ }

// leave stamps the departure of the interferer in slot: it is part of no
// later fold.
func (l *rxLog) leave(slot int32) { l.entries[slot].depart = l.folds }

// worst returns the largest fold in dbmToMW powers, each fold taken afresh
// in air-set order — bit for bit the worst sum the receive path keeps when
// it folds exact powers; 0 for a nil log. mw is scratch, returned for
// reuse.
func (l *rxLog) worst(mw []float64) ([]float64, float64) {
	if l == nil {
		return mw, 0
	}
	mw = mw[:0]
	for _, e := range l.entries {
		mw = append(mw, dbmToMW(e.dbm))
	}
	var worst float64
	for k := int32(0); k < l.folds; k++ {
		var sum float64
		for i, e := range l.entries {
			if e.arrive > k {
				break // arrivals are logged in fold order
			}
			if k < e.depart {
				sum += mw[i]
			}
		}
		if !(sum <= worst) { // raiseInterference's test
			worst = sum
		}
	}
	return mw, worst
}
