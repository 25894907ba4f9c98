// Umbrella header for the muerp library.
//
// muerp reproduces "Multi-user Entanglement Routing Design over Quantum
// Internets" (Zeng et al., IEEE ICDCS 2024): the MUERP problem model, the
// paper's three routing algorithms, its two comparison baselines, topology
// generators, a Monte-Carlo entanglement-process simulator, the experiment
// harness behind every evaluation figure, and the fidelity / multi-group
// future-work extensions. Include individual headers in production code;
// this umbrella is a convenience for examples and exploratory use.
#pragma once

#include "baselines/eqcast.hpp"           // IWYU pragma: export
#include "baselines/nfusion.hpp"          // IWYU pragma: export
#include "ctl/client.hpp"                 // IWYU pragma: export
#include "ctl/command_registry.hpp"       // IWYU pragma: export
#include "ctl/history.hpp"                // IWYU pragma: export
#include "ctl/mailbox.hpp"                // IWYU pragma: export
#include "experiment/config.hpp"          // IWYU pragma: export
#include "experiment/report.hpp"          // IWYU pragma: export
#include "experiment/runner.hpp"          // IWYU pragma: export
#include "experiment/scenario.hpp"        // IWYU pragma: export
#include "extensions/fidelity.hpp"        // IWYU pragma: export
#include "extensions/ghz.hpp"             // IWYU pragma: export
#include "extensions/multigroup.hpp"      // IWYU pragma: export
#include "extensions/purification.hpp"    // IWYU pragma: export
#include "graph/algorithms.hpp"           // IWYU pragma: export
#include "graph/graph.hpp"                // IWYU pragma: export
#include "network/channel.hpp"            // IWYU pragma: export
#include "network/network_builder.hpp"    // IWYU pragma: export
#include "network/quantum_network.hpp"    // IWYU pragma: export
#include "network/rate.hpp"               // IWYU pragma: export
#include "network/serialization.hpp"      // IWYU pragma: export
#include "network/svg.hpp"                // IWYU pragma: export
#include "routing/annealing.hpp"          // IWYU pragma: export
#include "routing/backup.hpp"             // IWYU pragma: export
#include "routing/capacity_planning.hpp"  // IWYU pragma: export
#include "routing/channel_finder.hpp"     // IWYU pragma: export
#include "routing/conflict_free.hpp"      // IWYU pragma: export
#include "routing/disjoint_pair.hpp"      // IWYU pragma: export
#include "routing/exact_solver.hpp"       // IWYU pragma: export
#include "routing/feasibility.hpp"        // IWYU pragma: export
#include "routing/fiber_limits.hpp"       // IWYU pragma: export
#include "routing/k_shortest.hpp"         // IWYU pragma: export
#include "routing/local_search.hpp"       // IWYU pragma: export
#include "routing/multipath.hpp"          // IWYU pragma: export
#include "routing/optimal_tree.hpp"       // IWYU pragma: export
#include "routing/perf_counters.hpp"      // IWYU pragma: export
#include "routing/plan.hpp"               // IWYU pragma: export
#include "routing/prim_based.hpp"         // IWYU pragma: export
#include "routing/router.hpp"             // IWYU pragma: export
#include "simulation/decoherence.hpp"     // IWYU pragma: export
#include "simulation/failure.hpp"         // IWYU pragma: export
#include "simulation/monte_carlo.hpp"     // IWYU pragma: export
#include "simulation/protocol.hpp"        // IWYU pragma: export
#include "simulation/qubit_machine.hpp"   // IWYU pragma: export
#include "simulation/session_service.hpp"  // IWYU pragma: export
#include "simulation/sharded_session_service.hpp"  // IWYU pragma: export
#include "simulation/swap_policy.hpp"     // IWYU pragma: export
#include "simulation/time_slotted.hpp"    // IWYU pragma: export
#include "support/cli.hpp"                // IWYU pragma: export
#include "support/json.hpp"               // IWYU pragma: export
#include "support/rng.hpp"                // IWYU pragma: export
#include "support/scheduler.hpp"          // IWYU pragma: export
#include "support/statistics.hpp"         // IWYU pragma: export
#include "support/table.hpp"              // IWYU pragma: export
#include "support/telemetry/alerts.hpp"   // IWYU pragma: export
#include "support/telemetry/export.hpp"   // IWYU pragma: export
#include "support/telemetry/flight_recorder.hpp"  // IWYU pragma: export
#include "support/telemetry/http_exporter.hpp"  // IWYU pragma: export
#include "support/telemetry/link_ledger.hpp"  // IWYU pragma: export
#include "support/telemetry/sampler.hpp"  // IWYU pragma: export
#include "support/telemetry/telemetry.hpp"  // IWYU pragma: export
#include "support/telemetry/timeseries.hpp"  // IWYU pragma: export
#include "topology/analysis.hpp"          // IWYU pragma: export
#include "topology/perturb.hpp"           // IWYU pragma: export
#include "topology/reference.hpp"         // IWYU pragma: export
#include "topology/structured.hpp"        // IWYU pragma: export
#include "topology/volchenkov.hpp"        // IWYU pragma: export
#include "topology/watts_strogatz.hpp"    // IWYU pragma: export
#include "topology/waxman.hpp"            // IWYU pragma: export
