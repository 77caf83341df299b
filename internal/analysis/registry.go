package analysis

// Suite returns the cawslint analyzers with their production
// configurations. The cmd/cawslint multichecker and the integration test
// both run exactly this suite, so `go test ./...` and `make lint` cannot
// drift apart.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism(DefaultDeterminismScope),
		GenBump(DefaultGenBumpConfig),
		Exhaustive(DefaultEnums),
		FloatCmp(DefaultFloatCmpScope, DefaultApprovedComparators),
		RefParity(DefaultRefParityConfig),
		GlobalMut(DefaultGlobalMutScope),
		SharedWrite(DefaultSharedWriteScope),
		NoAlloc(DefaultNoAllocConfig),
	}
}
