package core

// CtrlLen returns the number of entries in e's per-UID forwarding-state
// table.
func (e *Engine) CtrlLen() int { return len(e.ctrl) }
