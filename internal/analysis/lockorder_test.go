package analysis

import "testing"

func TestLockOrder(t *testing.T) {
	runFixture(t, "lockorder", LockOrder, nil)
}

// The x → y edge is closed only through the call to lockY.
func TestLockOrderInterprocedural(t *testing.T) {
	runFixture(t, "lockorder_inter", LockOrder, nil)
}
