/**
 * @file
 * The three workload paths. Each has an untraced end-to-end run and a
 * traced run:
 *
 *  - run*(): the timed repetitions behind the end-to-end metrics, with
 *    the output checks and the simulated-stats digest;
 *  - trace*(): one reference pass untraced, then the same work with
 *    spans, copied loops, captured streams and isolated layer replays.
 *    With @p primary false the path runs at a small probe size, so a
 *    traced run of any workload still reports every per-layer metric
 *    (the primary path runs last and its values win on shared names).
 */

#ifndef PERFBENCH_PATHS_HH
#define PERFBENCH_PATHS_HH

#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/cell.hh"
#include "obs/obs.hh"
#include "replay.hh"
#include "report.hh"
#include "spans.hh"

namespace perfbench {

void runSystemMix(const Options &options, Report &report, Digest &digest);
void traceSystemPath(const Options &options, bool primary,
                     SpanTrace &trace, Report &report, Digest &digest);

void runAttackStream(const Options &options, Report &report,
                     Digest &digest);
void traceAttackPath(const Options &options, bool primary,
                     SpanTrace &trace, Report &report, Digest &digest);

void runServeFleet(const Options &options, Report &report,
                   Digest &digest);
void traceServePath(const Options &options, bool primary,
                    SpanTrace &trace, Report &report, Digest &digest);

/** The runner's artifact of one grid, read back. */
struct GridArtifact
{
    std::vector<graphene::exp::CellKey> keys;
    std::vector<graphene::exp::CellResult> results;
    double cellWallS = 0.0; ///< Sum of per-cell wall time (.meta).
    std::uint64_t bytes = 0; ///< Artifact + sidecar size.
};

/** Simulated statistics of every cell, keyed workload|scheme. */
using CellMap = std::map<std::string, graphene::exp::CellStats>;

std::string cellKey(const std::string &workload, const std::string &scheme);

/** Digest every cell of @p cells, in key order. */
void addCells(const CellMap &cells, Digest &digest);

/** Graphene's largest refresh-energy overhead over @p cells. */
double grapheneEnergy(const CellMap &cells);

/** One timed grid, read back from the runner's artifact. */
struct GridPass
{
    double wallS = 0.0;
    GridArtifact artifact;
    CellMap cells;
    std::uint64_t acts = 0;
};

/**
 * Read back the grid artifact at @p jsonl (then delete it). Every cell
 * is one attempted operation; an errored cell, or a bit flip under a
 * protected scheme, is a failed one. @p expected is the cell count.
 */
GridPass readGridPass(const std::string &jsonl, double wall_s,
                      std::size_t expected, Report &report);

/**
 * Report the replay-derived layers of one path: FaultModel per ACT and
 * per refreshed row, and CounterTable per update with the hit, spill
 * and replace shares of @p table (the path's replays summed).
 */
void reportReplayLayers(const SpanTrace &trace, const TableReplay &table,
                        Report &report);

/** Bytes the runner's --obs exporters would write for @p sink. */
std::uint64_t obsExportBytes(const graphene::obs::Sink &sink);

} // namespace perfbench

#endif // PERFBENCH_PATHS_HH
