// Package decentral implements the paper's Section-3.4 decentralized
// parameter learning: the CPD P(X_i | Φ(X_i)) of each KERT-BN node needs
// only that node's data plus its parents', so it can be computed on the
// monitoring agent of service i after the parent agents ship their columns
// over. All agents compute concurrently; the decentralized learning time is
// therefore the *maximum* of the per-CPD times, versus the *sum* (plus full
// dataset assembly) for centralized learning — the comparison of Figure 5.
//
// Learn models the paper's setting exactly (one concurrent learner per
// agent); LearnWorkers bounds the fan-out with an internal/pool worker pool
// for hosts that simulate many more agents than they have cores. Learned
// CPDs are identical either way — each node's fit depends only on its own
// plan and columns, never on scheduling.
//
// Two column-shipping transports are provided: in-process (direct copy,
// for simulations) and TCP (the distributed stand-in; the paper's
// future-work idea of piggybacking on SOAP messages, minus SOAP).
package decentral
