package ctp

// TrickleResets returns the number of resets of c's beacon timer.
func (c *CTP) TrickleResets() uint64 { return c.beacons.Resets() }
