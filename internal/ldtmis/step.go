package ldtmis

// The LDT-MIS pipeline — hello, LDT construction, ranking, chunked
// permutation broadcast, VT-MIS — running on a sim.Machine, so the
// stepped engine executes it natively. Session is also the building
// block Awake-MIS embeds into its phase windows.

import (
	"awakemis/internal/ldt"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtmis"
)

// Session stages, each naming the step that runs once the previous one
// has completed.
const (
	sHello uint8 = iota
	sConstruct
	sRank
	sBroadcast
	sVTMIS
	sDone
)

// Session is one node's LDT-MIS window: it runs LDT-MIS as a
// sub-procedure over rounds [base, base+Span(...)). id must be unique
// among participants; state is updated to the node's MIS decision, and
// NewID returns the node's new small ID (its permutation entry) for
// verification. It runs from one frame: the LDT session and VT-MIS
// resume it through one continuation, bound once in Start.
type Session struct {
	tree      ldt.SProc
	vt        vtmis.Sub
	m         *sim.Machine
	rnd       *sim.Rand
	bandwidth int
	np        int
	v         Variant
	state     *misproto.State
	stage     uint8
	newID     int
	k         func()
	resumeFn  func()
}

// Start runs the window from sim round base, driven by m. rnd is the
// node's private randomness stream (sim.NodeEnv.Rand) and bandwidth the
// run's CONGEST budget. Call it at the end of an awake round strictly
// before base; k runs inside the final awake round's receive, with the
// node's MIS decision in *state and its new small ID in NewID. Start
// always yields.
func (s *Session) Start(m *sim.Machine, rnd *sim.Rand, bandwidth int, base int64, id int64, np int, v Variant, state *misproto.State, k func()) {
	*s = Session{m: m, rnd: rnd, bandwidth: bandwidth, np: np, v: v, state: state, k: k}
	s.resumeFn = s.resume
	s.tree.Init(m, rnd, base, id, np, s.resumeFn)
	s.run()
}

// NewID returns the small ID the node drew from the permutation.
func (s *Session) NewID() int { return s.newID }

func (s *Session) resume() {
	if !s.run() {
		s.k()
	}
}

// run advances the pipeline until a step yields (true) or the window
// is over (false).
func (s *Session) run() bool {
	p := &s.tree
	for {
		switch s.stage {
		case sHello:
			s.stage = sConstruct
			if p.Hello() {
				return true
			}
		case sConstruct:
			s.stage = sRank
			phases := constructPhases(s.v, s.np)
			if s.v == VariantRound {
				if p.ConstructRound(phases) {
					return true
				}
			} else if p.ConstructAwake(phases) {
				return true
			}
		case sRank:
			s.stage = sBroadcast
			if p.Rank() {
				return true
			}
		case sBroadcast:
			_, total := p.Ranked()
			payloadBits, chunkBits, numChunks := permChunks(s.np, s.bandwidth)
			var payload []byte
			if p.IsRoot() {
				payload = buildPermPayload(s.rnd, total, permWidth(s.np), payloadBits)
			}
			s.stage = sVTMIS
			if p.BroadcastChunks(payload, payloadBits, chunkBits, numChunks) {
				return true
			}
		case sVTMIS:
			rank, _ := p.Ranked()
			s.newID = decodeNewID(p.Data(), rank, permWidth(s.np))
			s.stage = sDone
			s.vt.Start(s.m, p.Cursor(), s.newID, s.np, s.state, p.Active(), s.resumeFn)
			return true
		default:
			return false
		}
	}
}

// stepNode is the standalone per-node state machine: round 0 is the
// model's initial all-awake round (nothing to send), and the LDT
// session occupies rounds from base 1.
type stepNode struct {
	sim.Machine
	env   *sim.NodeEnv
	res   *Result
	id    int64
	np    int
	v     Variant
	state misproto.State
	sess  Session
}

// StepProgram returns the standalone per-node program.
func StepProgram(res *Result, ids []int64, np int, v Variant) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{env: env, res: res, id: ids[env.ID], np: np, v: v}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	n.Begin(out, func() { n.Yield(0, nil, n.window) })
}

func (n *stepNode) window([]sim.Inbound) {
	n.sess.Start(&n.Machine, n.env.Rand, n.env.Bandwidth, 1, n.id, n.np, n.v, &n.state, n.finish)
}

func (n *stepNode) finish() {
	n.res.NewID[n.env.ID] = n.sess.NewID()
	n.res.InMIS[n.env.ID] = n.state == misproto.InMIS
}
