// Package obs is the unified observability layer: an exposition writer that
// renders state its owner already keeps as Prometheus text, and the
// decision log, which projects the energy ledger's frame spans onto a
// structured per-decision event log (NDJSON).
//
// Design constraints, in order:
//
//  1. Byte-identical outputs. Observability must never change a report,
//     fault sweep, or NDJSON result row by one byte. Everything here is
//     therefore attached out-of-band: a scrape only reads, as it writes,
//     counters its owner (a cluster, a store, a worker) keeps for its own
//     work, and the decision log is derived from ledger spans the run
//     already produced — it observes the simulation, it never participates
//     in it. The simulation keeps no metrics of its own: a run's facts are
//     its result row and its decision log.
//  2. Each owner writes its own families. A server's scrape is its owners'
//     WriteMetrics calls in a fixed order; nothing is registered, in the
//     process or in the server, so clusters in one process (tests) never
//     share or shadow each other's families.
//  3. One sample per node. Every labeled family is per node: one sample per
//     configured node, in node order.
//
// Nothing here is switched off: every run derives its decision log once,
// after its ledger closes. The one observability switch, greensrv -no-obs,
// turns off fleet tracing (package trace).
package obs
