package shortest

// SetMSBFSDirection forces every MS-BFS level into direction d (dirRule
// restores the cost rule) until the returned restore function runs.
// Tests using it must not run in parallel with other kernel callers.
func SetMSBFSDirection(d msbfsDirection) (restore func()) {
	prev := msbfsForce
	msbfsForce = d
	return func() { msbfsForce = prev }
}
