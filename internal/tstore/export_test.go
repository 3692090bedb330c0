package tstore

// SynthTrace exposes the package's synthetic trace generator to the
// external test package (the pinned-bytes test imports core, which
// imports tstore).
var SynthTrace = synthTrace
