// Package misproto holds the node-state vocabulary and wire messages
// shared by all distributed MIS algorithms in this repository
// (the paper's state ∈ {undecided, inMIS, notinMIS}, §6).
package misproto

// State is a node's MIS status.
type State uint8

const (
	// Undecided nodes have not yet committed.
	Undecided State = iota
	// InMIS nodes have irrevocably joined the MIS.
	InMIS
	// NotInMIS nodes have a neighbor in the MIS.
	NotInMIS
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Undecided:
		return "undecided"
	case InMIS:
		return "inMIS"
	case NotInMIS:
		return "notinMIS"
	default:
		return "invalid"
	}
}

// StateMsg announces a sender's state to a neighbor.
type StateMsg struct {
	State State
}

// Bits returns the wire size: two bits encode three states.
func (m StateMsg) Bits() int { return 2 }
