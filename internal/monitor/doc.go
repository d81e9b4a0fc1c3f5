// Package monitor reproduces the paper's Section-2 data pipeline: OGSA
// middleware monitoring points measure per-service elapsed times, a
// monitoring agent on each machine batches them, and a management server
// assembles complete per-request rows and feeds the periodic model
// (re)construction scheme. Two report transports are provided: in-process
// channels (simulation) and TCP with fixed-layout binary frames (the
// distributed deployment stand-in; see internal/wire).
//
// Paper mapping (Figure 1): Point ↔ a monitoring point attached to one
// service, Agent ↔ the per-machine monitoring agent that batches
// measurements, Server ↔ the management server whose assembled rows
// become the data window W of Section 2. Row assembly is keyed by request
// id, so partial rows from straggling agents never reach the model
// builders.
package monitor
