package serve

import (
	"fmt"
	"time"

	"dagsched/internal/sim"
)

// The engine clock. A shard's engine loop sleeps on one timer armed at
// nextWake and, when it fires, catches the session up to the current wall
// tick. The ticker clock wakes every tick, even when nothing can happen: an
// idle daemon at the 10ms default burns 100 wakeups/sec per shard. When a
// shard's session is event-safe (sim.Session.EventSafe), its evolution
// depends only on the sequence of (Arrive, AdvanceTo) operations and their
// clock values, never on how many wakeups delivered them, so the jump clock
// wakes only at the session's next event: an idle shard arms nothing and
// burns zero CPU. Every mailbox message catches the session up first, so
// the two clocks stay bit-identical for the same submission sequence.

// ClockMode selects the engine clock discipline (Config.Clock).
type ClockMode string

const (
	// ClockAuto: event-jump when the session is event-safe, ticker
	// otherwise. The default.
	ClockAuto ClockMode = "auto"
	// ClockTicker: always the fixed wall-clock ticker.
	ClockTicker ClockMode = "ticker"
	// ClockJump: require event-jump; New refuses configurations that are
	// not event-safe rather than silently falling back.
	ClockJump ClockMode = "jump"
)

// ParseClockMode parses the -clock flag value.
func ParseClockMode(s string) (ClockMode, error) {
	switch ClockMode(s) {
	case ClockAuto, ClockTicker, ClockJump:
		return ClockMode(s), nil
	case "":
		return ClockAuto, nil
	}
	return "", fmt.Errorf("serve: unknown clock mode %q (want auto, ticker, or jump)", s)
}

// resolveClock decides whether a shard runs the event-jump loop. Only
// meaningful with the ticker enabled; a negative TickInterval has no clock
// at all (sessions advance on drain or explicit Advance).
func resolveClock(cfg Config, sess *sim.Session) (jump bool, err error) {
	switch cfg.Clock {
	case ClockTicker:
		return false, nil
	case ClockJump:
		if !sess.EventSafe() {
			return false, fmt.Errorf("serve: clock mode %q requires an event-safe scheduler configuration (sched %q is not)", ClockJump, cfg.Sched)
		}
		return true, nil
	default: // ClockAuto
		return sess.EventSafe(), nil
	}
}

// nextWake computes the earliest wall-clock instant this shard must wake
// itself: the next wall tick (ticker clock) or the wall time of the tick
// after the session's next event hint (jump clock; tick h is simulatable
// once the wall tick reaches h+1), the WAL's interval-policy flush
// deadline, or the next due checkpoint. ok=false means the shard may sleep
// until the next mailbox message — always so once quiesced (the clock is
// done moving; finalize fast-forwards) or without a clock (TickInterval < 0:
// sessions advance on drain or explicit Advance).
func (sh *shard) nextWake() (time.Time, bool) {
	var (
		at time.Time
		ok bool
	)
	tick := sh.srv.cfg.TickInterval
	if sh.quiesced || tick <= 0 {
		return at, ok
	}
	add := func(t time.Time) {
		if !ok || t.Before(at) {
			at, ok = t, true
		}
	}
	if !sh.jump {
		add(sh.srv.start.Add(time.Duration(sh.wallTick()+1) * tick))
	} else if hint, hok := sh.sess.NextEventHint(); hok {
		add(sh.srv.start.Add(time.Duration(hint+1) * tick))
	}
	if sh.wal != nil {
		if d, dok := sh.wal.syncDeadline(); dok {
			add(d)
		}
		if sh.ckptDirty && sh.srv.cfg.CheckpointInterval >= 0 && sh.srv.degraded.Load() == nil {
			add(sh.lastCheckpoint.Add(sh.srv.cfg.CheckpointInterval))
		}
	}
	return at, ok
}

// wake is the timer-fire body of the engine loop: catch the session up to
// the current wall tick (bit-identical to having ticked every interval),
// then run the WAL flush and checkpoint cadence.
func (sh *shard) wake() {
	before := sh.sess.Now()
	sh.catchUp()
	if sh.obsReg != nil {
		if sh.jump {
			sh.obsReg.Inc("serve.clock_jumps", 1)
			sh.obsReg.Observe("serve.clock_jump_ticks", float64(sh.sess.Now()-before))
		} else {
			sh.obsReg.Inc("serve.ticker_wakeups", 1)
		}
	}
	if sh.wal != nil {
		now := time.Now()
		if err := sh.wal.maybeSync(now); err != nil {
			sh.degrade("wal sync", err)
		}
		sh.maybeCheckpoint(now)
	}
}

// wallTick is the current wall-clock tick.
func (sh *shard) wallTick() int64 {
	return int64(time.Since(sh.srv.start) / sh.srv.cfg.TickInterval)
}

// catchUp advances the session to the current wall tick.
func (sh *shard) catchUp() { sh.advance(sh.wallTick()) }
