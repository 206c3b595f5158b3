package machine

import (
	"fmt"

	"repro/internal/vclock"
)

// Chan is a simulated Go channel: a FIFO message queue with a fixed
// capacity whose synchronization edges follow the Go memory model
// ("Ready, set, Go!" / go.dev/ref/mem):
//
//   - the k-th send on a channel happens before the k-th receive from it
//     completes;
//   - the k-th receive happens before the (k+C)-th send on a channel of
//     capacity C completes — for an unbuffered channel (C = 0) this is
//     the rendezvous edge back to the k-th sender.
//
// Message payloads are not modeled: programs lowered onto the machine
// move data through the shared region, where the detectors can see it;
// the channel contributes ordering and blocking only. Sends take queue
// positions in arrival order (Go's sender queue); receives complete in
// FIFO order.
type Chan struct {
	id  uint64
	m   *Machine
	cap int

	// sendVCs[k] is the clock published by send k at arrival (its message,
	// as far as happens-before is concerned). A send arrives — takes its
	// queue position and publishes — immediately, then blocks until
	// capacity frees; its message is receivable while it waits, which is
	// exactly the unbuffered rendezvous.
	sendVCs []vclock.VC
	// recvVCs[k] is the clock published by receive k at completion; send
	// k+cap joins it before completing.
	recvVCs []vclock.VC

	sendArrivals int // sends that have taken a queue position
	recvArrivals int // receives completed (receives arrive and complete atomically)
	sends        int // sends completed (statistics only)

	// waiters holds threads blocked on this channel (nondeterministic
	// mode); every state change wakes them all and they re-check their
	// predicate, so no wakeup policy nondeterminism is introduced beyond
	// the scheduler's.
	waiters []*Thread
}

// NewChan creates a channel of the given capacity on machine m;
// capacity 0 is an unbuffered (rendezvous) channel.
func (m *Machine) NewChan(capacity int) *Chan {
	if capacity < 0 {
		panic("machine: negative channel capacity")
	}
	c := &Chan{id: m.objID(), m: m, cap: capacity}
	m.chans = append(m.chans, c)
	return c
}

// Cap returns the channel's capacity.
func (c *Chan) Cap() int { return c.cap }

// wakeWaiters makes every thread blocked on the channel runnable; each
// re-checks its predicate and re-blocks if it still cannot proceed.
func (c *Chan) wakeWaiters() {
	for _, w := range c.waiters {
		if w.state == stateBlocked {
			w.state = stateRunnable
		}
	}
	c.waiters = nil
}

// recvDone reports whether receive k has completed.
func (c *Chan) recvDone(k int) bool { return k < len(c.recvVCs) }

// Send performs one channel send: it takes the next queue position,
// publishes the sender's clock as the message, and blocks until the
// receive that frees its capacity slot has completed — immediately for a
// buffered channel with space, after the matching receive for an
// unbuffered one. Completing joins that receive's published clock (the
// "receive happens before the (k+C)-th send completes" edge).
func (t *Thread) Send(c *Chan) {
	m := t.m
	if c.m != m {
		t.fail(ErrMisuse, "send", "channel %d used on wrong machine", c.id)
	}
	t.syncEnter()
	k := c.sendArrivals
	c.sendArrivals++
	c.sendVCs = append(c.sendVCs, t.VC.Copy())
	c.trace(t, SyncChanSend, k)
	m.tickClock(t)
	c.wakeWaiters() // message k is now receivable
	if need := k - c.cap; need >= 0 {
		if m.cfg.DetSync {
			// Kendo mode: deterministically retry under the turn, like a
			// contended Lock — blocked waiting would break determinism.
			for !c.recvDone(need) {
				t.retryTurn()
			}
		} else {
			for !c.recvDone(need) {
				c.waiters = append(c.waiters, t)
				t.block("chan send " + fmt.Sprint(c.id))
			}
		}
		t.VC.Join(c.recvVCs[need])
	}
	c.sends++
	t.syncDone()
	c.trace(t, SyncChanSendDone, k)
}

// Recv performs one channel receive: it blocks until a message is
// available, joins the matching send's clock (the "send happens before
// the receive completes" edge), and publishes its own clock for the
// sender that will reuse the freed slot.
func (t *Thread) Recv(c *Chan) {
	m := t.m
	if c.m != m {
		t.fail(ErrMisuse, "recv", "channel %d used on wrong machine", c.id)
	}
	t.syncEnter()
	if m.cfg.DetSync {
		for c.sendArrivals <= c.recvArrivals {
			t.retryTurn()
		}
	} else {
		for c.sendArrivals <= c.recvArrivals {
			c.waiters = append(c.waiters, t)
			t.block("chan recv " + fmt.Sprint(c.id))
		}
	}
	r := c.recvArrivals
	c.recvArrivals++
	t.VC.Join(c.sendVCs[r])
	c.recvVCs = append(c.recvVCs, t.VC.Copy())
	m.tickClock(t)
	c.wakeWaiters() // a capacity slot is now free
	t.syncDone()
	c.trace(t, SyncChanRecv, r)
}

// trace reports channel operation kind at queue position pos.
func (c *Chan) trace(t *Thread, kind SyncEvent, pos int) {
	if tr := c.m.cfg.Tracer; tr != nil {
		tr.Sync(t, kind, c.id, pos, c.cap)
	}
}
