//go:build !amd64 && !arm64

package core

// gkey returns the calling goroutine's registry key. Without an assembly
// stub to read the g, the key is the goroutine id itself.
func gkey() uint64 { return goid() }

// keyIsGoid reports whether a registry key is the goroutine id itself.
const keyIsGoid = true
