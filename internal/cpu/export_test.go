package cpu

// TryStaticFootprint runs the core's attempt-0 static-footprint evaluation
// of inv, for the tests of package cpu_test, which may import workloads.
func (c *Core) TryStaticFootprint(inv Invocation) bool {
	c.inv = inv
	return c.tryStaticFootprint()
}
