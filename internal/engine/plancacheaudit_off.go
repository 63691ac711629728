//go:build !plancacheaudit

package engine

// planCacheAudit re-plans every statement served by instantiating a plan
// template and panics when the fresh plan differs (auditInstance). Build
// with -tags plancacheaudit to enable it.
const planCacheAudit = false
