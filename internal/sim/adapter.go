package sim

import (
	"fmt"
	"sync"
)

// goroutineAdapter runs goroutine-form programs on the stepped engine:
// each node's program runs on its own goroutine, paused at round
// boundaries, and a gnode translates between the program's Ctx calls
// and the engine's StepNode protocol. The translation preserves the
// program's per-node execution order exactly, so adapted programs are
// bit-identical with their lockstep runs.
//
// The adapter is run-scoped: shutdown unblocks and joins every program
// goroutine (needed when the engine aborts mid-run).
type goroutineAdapter struct {
	prog Program
	cfg  *Config
	quit chan struct{}
	wg   sync.WaitGroup
}

func newGoroutineAdapter(prog Program, cfg *Config) *goroutineAdapter {
	return &goroutineAdapter{prog: prog, cfg: cfg, quit: make(chan struct{})}
}

func (a *goroutineAdapter) stepProgram() StepProgram {
	return func(env *NodeEnv) StepNode {
		return &gnode{
			a:      a,
			env:    env,
			yield:  make(chan gyield),
			resume: make(chan gresume),
		}
	}
}

// shutdown aborts any still-running program goroutines and waits for
// them to exit. It is called (deferred) after the engine's run loop
// returns — normally, on context cancellation, or on a node failure —
// at which point no OnWake call is in flight and every live program
// goroutine is parked in a select that includes quit: closing it
// unwinds each program via quitSignal, so Wait cannot hang and no
// per-node goroutine outlives the run (asserted by the leak test in
// cancel_test.go).
func (a *goroutineAdapter) shutdown() {
	close(a.quit)
	a.wg.Wait()
}

type yieldKind uint8

const (
	ySends yieldKind = iota // program finished a round's send step
	yEnd                    // program ended the round (next set)
	yDone                   // program halted cleanly
	yErr                    // program panicked
)

type gyield struct {
	kind  yieldKind
	sends []outMsg
	next  int64
	err   error
}

type gresume struct {
	inbox []Inbound
	round int64
}

// gnode bridges one node: StepNode on the engine side, ctxBackend on
// the program side. The program goroutine is parked inside deliver
// (waiting for an inbox) between OnWake calls.
type gnode struct {
	a      *goroutineAdapter
	env    *NodeEnv
	yield  chan gyield
	resume chan gresume
	next   int64
	exited bool
}

var (
	_ StepNode   = (*gnode)(nil)
	_ ctxBackend = (*gnode)(nil)
)

// Start implements StepNode: launch the program goroutine and run it up
// to its first send-step yield, staging the round-0 sends.
func (n *gnode) Start(out *Outbox) {
	ctx := &Ctx{
		backend: n,
		cfg:     n.a.cfg,
		id:      n.env.ID,
		degree:  n.env.Degree,
		rng:     n.env.Rand,
	}
	n.a.wg.Add(1)
	go n.main(ctx)
	if _, done := n.pump(out); done {
		n.exited = true
	}
}

// OnWake implements StepNode: feed the program its round inbox, then
// run it to its next send-step yield (transparently waking it into its
// next round) or to completion.
func (n *gnode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	if n.exited {
		return 0, true
	}
	// The engine lends the inbox for this call only, but the program may
	// keep what Ctx.Deliver returns, so it receives its own copy.
	select {
	case n.resume <- gresume{inbox: append([]Inbound(nil), inbox...)}:
	case <-n.a.quit:
		return 0, true
	}
	return n.pump(out)
}

// pump drains program yields until the node has staged the sends for
// its next awake round (returning its wake time) or halted. The quit
// alternatives are defensive: pump only runs inside Start/OnWake, which
// never overlap shutdown today, but the handshake must not deadlock if
// that ordering ever changes.
func (n *gnode) pump(out *Outbox) (int64, bool) {
	for {
		var y gyield
		select {
		case y = <-n.yield:
		case <-n.a.quit:
			return 0, true
		}
		switch y.kind {
		case ySends:
			out.msgs = append(out.msgs, y.sends...) // validated by Ctx.Send
			return n.next, false
		case yEnd:
			n.next = y.next
			select {
			case n.resume <- gresume{round: y.next}:
			case <-n.a.quit:
				return 0, true
			}
		case yDone:
			return 0, true
		default: // yErr
			panic(&nodeFailure{node: n.env.ID, err: y.err})
		}
	}
}

// deliver implements ctxBackend on the program side.
func (n *gnode) deliver(c *Ctx) []Inbound {
	select {
	case n.yield <- gyield{kind: ySends, sends: c.out}:
	case <-n.a.quit:
		panic(quitSignal{})
	}
	select {
	case r := <-n.resume:
		c.out = c.out[:0]
		return r.inbox
	case <-n.a.quit:
		panic(quitSignal{})
	}
}

// endRound implements ctxBackend on the program side.
func (n *gnode) endRound(c *Ctx, next int64) int64 {
	select {
	case n.yield <- gyield{kind: yEnd, next: next}:
	case <-n.a.quit:
		panic(quitSignal{})
	}
	select {
	case r := <-n.resume:
		return r.round
	case <-n.a.quit:
		panic(quitSignal{})
	}
}

// main is the program goroutine: the analogue of the lockstep engine's
// nodeMain, including the graceful completion of a half-finished final
// round.
func (n *gnode) main(ctx *Ctx) {
	defer n.a.wg.Done()
	var progErr error
	aborted := func() (aborted bool) {
		defer func() {
			switch r := recover().(type) {
			case nil, haltSignal:
			case quitSignal:
				aborted = true
			case error:
				progErr = fmt.Errorf("program panic: %w", r)
			default:
				progErr = fmt.Errorf("program panic: %v", r)
			}
		}()
		n.a.prog(ctx)
		return false
	}()
	if aborted {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(quitSignal); !ok {
				panic(r)
			}
		}
	}()
	if progErr != nil {
		select {
		case n.yield <- gyield{kind: yErr, err: progErr}:
		case <-n.a.quit:
		}
		return
	}
	if ctx.ph == phaseCompute {
		// Finish the round the program stopped in: transmit its staged
		// sends and discard the inbox.
		ctx.ph = phaseDelivered
		_ = n.deliver(ctx)
	}
	select {
	case n.yield <- gyield{kind: yDone}:
	case <-n.a.quit:
	}
}
