package misproto

import "testing"

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Undecided, "undecided"},
		{InMIS, "inMIS"},
		{NotInMIS, "notinMIS"},
		{State(99), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("State(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestStateMsgBits(t *testing.T) {
	// Three states fit in two bits; the CONGEST accounting relies on it.
	if got := (StateMsg{State: InMIS}).Bits(); got != 2 {
		t.Errorf("Bits = %d, want 2", got)
	}
}
