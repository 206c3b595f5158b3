package machine

import "repro/internal/kendo"

// kendoRT is the machine as a kendo.Runtime sees it: the reference view
// the scheduler's own turn scan is checked against. Its participation
// rule is spelled out state by state rather than shared with the machine.
type kendoRT Machine

func (k *kendoRT) Threads() int { return len(k.threads) }

func (k *kendoRT) Counter(tid int) uint64 { return k.threads[tid].DetCounter }

func (k *kendoRT) Participating(tid int) bool {
	t := k.threads[tid]
	if t == nil {
		return false // never used, or recycled after a join
	}
	switch t.state {
	case stateRunnable, stateParked, stateDetWait:
		return true
	}
	return false
}

// CheckStepHolder makes m compare the holder of every Kendo turn check it
// makes, each grant and each refusal, with a fresh kendo.Holder scan. The
// returned function reports the grants, the refusals and the mismatches
// so far; read it after Run returns.
func CheckStepHolder(m *Machine) func() (grants, refusals, mismatches uint64) {
	var g, r, bad uint64
	m.turnCheck = func(t *Thread, holder int) {
		if holder == t.ID {
			g++
		} else {
			r++
		}
		if holder != kendo.Holder((*kendoRT)(m)) {
			bad++
		}
	}
	return func() (uint64, uint64, uint64) { return g, r, bad }
}
