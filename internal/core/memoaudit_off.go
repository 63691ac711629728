//go:build !memoaudit

package core

// memoAudit turns every memo hit into a recomputation that must agree
// with the memoized value. Build with -tags memoaudit to enable it.
const memoAudit = false
