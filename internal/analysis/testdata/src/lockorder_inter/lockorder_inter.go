// Fixture for the lockorder analyzer's call edges: the x → y edge exists
// only through the call to lockY, so only the function summaries reveal
// the cycle.
package lockorderinterfix

import "threads"

var (
	x threads.Mutex
	y threads.Mutex
)

func touch() {}

func lockY() {
	y.Acquire()
	touch()
	y.Release()
}

func xThenCallY() {
	x.Acquire()
	lockY() // want "potential deadlock: lock-acquisition cycle"
	x.Release()
}

func yThenX() {
	y.Acquire()
	x.Acquire()
	touch()
	x.Release()
	y.Release()
}

// Transitive summary: callsLockY acquires y through lockY, two frames
// deep, and is itself clean.
func callsLockY() {
	lockY()
}
