//go:build amd64 || arm64

package core

// getg returns the address of the calling goroutine's runtime g
// (getg_amd64.s, getg_arm64.s). It reads no field of the g: the address
// is only an opaque key, unique among live goroutines.
func getg() uintptr

// gkey returns the calling goroutine's registry key: the address of its g.
func gkey() uint64 { return uint64(getg()) }

// keyIsGoid reports whether a registry key is the goroutine id itself. A g
// is not: the runtime hands an exited goroutine's g to a later one, so an
// adopted entry must also check the goroutine id (see Self).
const keyIsGoid = false
