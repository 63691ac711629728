//go:build memoaudit

package core

// memoAudit is on: every memo hit is recomputed from the plan and
// compared field by field, and a mismatch panics.
const memoAudit = true
