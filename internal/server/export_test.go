package server

// Test-only entry point: the admission tests read a tenant's high-water mark
// to prove the quota bound held.

// Peak returns the tenant's high-water in-flight mark (0 for a tenant that
// never ran).
func (a *Admission) Peak(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t := a.tenants[tenant]; t != nil {
		return t.peak
	}
	return 0
}
