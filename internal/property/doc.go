// Package property implements the industrial-style graph framework that
// GraphBIG abstracts from IBM System G (paper §2 "Framework" and §4.1).
//
// The data representation is vertex-centric and dynamic: a vertex is the
// basic unit of the graph; its properties and its outgoing edge list live
// inside the vertex structure, and all vertex structures form an adjacency
// list reached through an index (Figure 2(c) of the paper). This layout
// trades the locality of CSR for the flexibility real deployments need —
// exactly the trade-off the paper studies.
//
// Workloads never touch the storage directly. They go through framework
// primitives — AddVertex, FindVertex, DeleteVertex, AddEdge, DeleteEdge,
// Neighbors, GetProp/SetProp — mirroring the primitive interface the paper
// describes. Each primitive:
//
//   - performs the real operation on the in-memory Go structures, and
//   - when the graph carries a mem.Tracker, reports the loads, stores,
//     instructions and branches the operation would issue against the
//     simulated address layout, tagged mem.ClassFramework.
//
// The simulated layout assigns every vertex record, edge chunk, property
// block and index table region an address from a mem.Arena. Edge chunks
// grow by doubling and move to fresh addresses when they grow, reproducing
// the scattered, realloc-heavy footprint of a dynamic graph store (versus
// the compact arrays of package csr).
//
// That layout is what the instrumented runs see; it is not how the Go
// structures are laid out. A Vertex holds its identity, its lists and its
// simulated addresses; property values sit in per-field columns that exist
// once written (props.go) and that native kernels fill a View segment at a
// time (SetColumn), an edge is its destination and weight, and a
// bulk-built graph over dense IDs is indexed by one flat table. Simulated
// sizes come from Schema.Cap() and the 24-byte edge record, Go memory from
// what was written.
package property
