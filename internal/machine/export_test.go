package machine

// CheckStepHolder makes m compare every reuse of a step's Kendo turn
// holder with a fresh kendo.Holder scan. The returned function reports
// the reuses and the mismatches so far; read it after Run returns.
func CheckStepHolder(m *Machine) func() (reuses, mismatches uint64) {
	c := &holderCheck{}
	m.holderCheck = c
	return func() (uint64, uint64) { return c.reuses, c.mismatches }
}
