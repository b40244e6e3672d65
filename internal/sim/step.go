package sim

import "fmt"

// StepProgram is a per-node algorithm as a state machine: a factory
// called once per node at run start. Engines drive the returned
// StepNode round by round with no dedicated goroutine, which is what
// lets the stepped engine scale to millions of nodes.
type StepProgram func(env *NodeEnv) StepNode

// NodeEnv is a step node's static view of the network, fixed for the
// whole run.
type NodeEnv struct {
	// ID is the node's index (output-recording only; the model is
	// anonymous).
	ID int
	// Degree is the node's number of ports.
	Degree int
	// N is the common upper bound on the network size known to nodes.
	N int
	// Bandwidth is the per-message bit budget B.
	Bandwidth int
	// Rand is the node's private randomness stream, derived from
	// Config.Seed and ID. It points into one array of the run's
	// streams: copy the pointer, never the Rand, or the copy forks the
	// stream.
	Rand *Rand
}

// StepNode is one node's state machine.
//
// Time works as follows: every node is awake in round 0 (the model's
// initial round). Start stages the node's round-0 sends. Then, for each
// awake round r, the engine transmits the sends staged for r, collects
// what awake neighbors sent this node in r, and calls
// OnWake(r, inbox, out). The node updates its state from the inbox,
// stages into out the messages it will transmit at its next awake
// round, and returns that round's number — or done, which halts the
// node at the end of round r (anything staged is discarded).
//
// Sends for a round are therefore decided at the end of the node's
// previous awake round: round r's sends may depend on everything up to
// round r_prev's inbox but not on round r's.
//
// The inbox slice is only valid during the OnWake call.
type StepNode interface {
	// Start stages the node's sends for round 0.
	Start(out *Outbox)
	// OnWake handles awake round round. nextWake must exceed round
	// unless done is true.
	OnWake(round int64, inbox []Inbound, out *Outbox) (nextWake int64, done bool)
}

// Outbox collects the sends a step node stages for one awake round.
type Outbox struct {
	msgs      []outMsg
	node      int
	degree    int
	bandwidth int
	strict    bool
	arc       int32 // index of the node's first arc in the graph's arc array
}

func (o *Outbox) configure(node, degree int, cfg *Config) {
	o.node = node
	o.degree = degree
	o.bandwidth = cfg.Bandwidth
	o.strict = cfg.Strict
}

// Send queues a message on the given port. If the receiving neighbor is
// asleep in the round the message is transmitted, it is lost.
func (o *Outbox) Send(port int, m Message) {
	if port < 0 || port >= o.degree {
		panic(fmt.Sprintf("sim: node %d: invalid port %d (degree %d)", o.node, port, o.degree))
	}
	o.checkBits(port, m)
	if n := len(o.msgs); n == cap(o.msgs) && n < o.degree {
		// A node that sends on one port usually sends on several, so
		// grow straight to degree capacity instead of paying the
		// append doubling churn per node.
		o.msgs = append(make([]outMsg, 0, o.degree), o.msgs...)
	}
	o.msgs = append(o.msgs, outMsg{port: int32(port), msg: m})
}

// Broadcast sends m on every port. It stages one entry, which the
// engine expands over the ports in port order; m.Bits is evaluated
// once for all of them. Under Config.Strict an oversized m fails as
// the send on port 0 would. A node with no ports stages nothing.
func (o *Outbox) Broadcast(m Message) {
	if o.degree == 0 {
		return
	}
	o.checkBits(0, m)
	o.msgs = append(o.msgs, outMsg{port: broadcastPort, msg: m})
}

// checkBits enforces the bandwidth budget on a send on port under
// Config.Strict.
func (o *Outbox) checkBits(port int, m Message) {
	if o.strict {
		if bits := m.Bits(); bits > o.bandwidth {
			panic(&BandwidthError{Node: o.node, Port: port, Bits: bits, Budget: o.bandwidth})
		}
	}
}

func (o *Outbox) reset() { o.msgs = o.msgs[:0] }

// mixed reports whether the staged sends are anything but at most one
// Broadcast: a unicast Send, or more than one entry.
func (o *Outbox) mixed() bool {
	return len(o.msgs) > 1 || len(o.msgs) == 1 && o.msgs[0].port != broadcastPort
}
