// Fixture for cross-package lockorder checking: the A → B edge is closed
// only through orderdep.LockB, so the cycle is invisible to a run of this
// package alone (interproc_test.go pins the miss).
package orderusefix

import dep "threads/internal/analysis/testdata/src/orderdep"

func aThenB() {
	dep.A.Acquire()
	dep.LockB() // want "potential deadlock: lock-acquisition cycle"
	dep.UnlockB()
	dep.A.Release()
}

func bThenA() {
	dep.B.Acquire()
	dep.A.Acquire()
	dep.A.Release()
	dep.B.Release()
}
