//go:build plancacheaudit

package engine

// planCacheAudit is on: every plan-cache hit that instantiates a template
// with new literals re-plans the statement and compares (auditInstance).
const planCacheAudit = true
