#include "sim/experiment.hh"

#include "common/cancel.hh"
#include "common/logging.hh"
#include "exp/fingerprint.hh"

namespace graphene {
namespace sim {

namespace {

/** The per-bank spec a system run would hand the controllers. */
schemes::SchemeSpec
cellSpec(const SystemConfig &config, schemes::SchemeKind kind)
{
    schemes::SchemeSpec spec = schemes::bankSpec(
        config.scheme, config.geometry.rowsPerBank, config.timing);
    spec.kind = kind;
    return spec;
}

/** The per-bank spec an ACT-stream run would build. */
schemes::SchemeSpec
cellSpec(const ActEngineConfig &config, schemes::SchemeKind kind)
{
    schemes::SchemeSpec spec =
        schemes::bankSpec(config.scheme, config.rowsPerBank, config.timing);
    spec.kind = kind;
    return spec;
}

// ---- spec fingerprinting -------------------------------------------
// Every field that can influence a cell's result is folded into its
// fingerprint; the cache key and the derived RNG seed are both pure
// functions of these digests.

void
addTimingFields(exp::Fingerprint &fp, const dram::TimingParams &t)
{
    fp.field("tCK", t.tCK.value())
        .field("tREFI", t.tREFI.value())
        .field("tRFC", t.tRFC.value())
        .field("tRC", t.tRC.value())
        .field("tRCD", t.tRCD.value())
        .field("tRP", t.tRP.value())
        .field("tCL", t.tCL.value())
        .field("tRAS", t.tRAS.value())
        .field("tBL", t.tBL.value())
        .field("tREFW", t.tREFW.value())
        .field("tFAW", t.tFAW.value());
}

void
addSchemeFields(exp::Fingerprint &fp,
                const schemes::SchemeSpec &spec)
{
    fp.field("kind",
             static_cast<std::uint64_t>(
                 static_cast<unsigned>(spec.kind)))
        .field("rowHammerThreshold", spec.rowHammerThreshold)
        .field("schemeRowsPerBank", spec.rowsPerBank)
        .field("blastRadius",
               static_cast<std::uint64_t>(spec.blastRadius))
        .field("grapheneK",
               static_cast<std::uint64_t>(spec.grapheneK))
        .field("cbtAssumeContiguous", spec.cbtAssumeContiguous)
        .field("schemeSeed", spec.seed);
    addTimingFields(fp, spec.timing);
}

void
addGeometryFields(exp::Fingerprint &fp, const dram::Geometry &g)
{
    fp.field("channels", static_cast<std::uint64_t>(g.channels))
        .field("ranksPerChannel",
               static_cast<std::uint64_t>(g.ranksPerChannel))
        .field("banksPerRank",
               static_cast<std::uint64_t>(g.banksPerRank))
        .field("rowsPerBank", g.rowsPerBank)
        .field("bytesPerRow", g.bytesPerRow);
}

void
addWorkloadFields(exp::Fingerprint &fp,
                  const workloads::WorkloadSpec &workload)
{
    fp.field("workload", workload.name)
        .field("coreCount",
               static_cast<std::uint64_t>(
                   workload.coreParams.size()));
    for (const auto &p : workload.coreParams) {
        fp.field("app", p.name)
            .field("sequentialFraction", p.sequentialFraction)
            .field("zipfTheta", p.zipfTheta)
            .field("workingSetRows", p.workingSetRows)
            .field("meanGapCycles", p.meanGapCycles)
            .field("writeFraction", p.writeFraction);
    }
}

/** SystemConfig fields minus the scheme axis. */
void
addSystemTrafficFields(exp::Fingerprint &fp,
                       const SystemConfig &config)
{
    // analyze: fp-exempt(scheme) — deliberately excluded: the
    // traffic digest must be identical across schemes so baseline
    // and protected runs derive the same request stream; the scheme
    // axis enters the *cell* digest via addSchemeFields.
    // analyze: fp-exempt(obs) — the tracing sink never influences
    // results (obsBody contract), so it must not split cache keys.
    fp.field("numCores",
             static_cast<std::uint64_t>(config.numCores))
        .field("windows", config.windows)
        .field("memoryLevelParallelism",
               static_cast<std::uint64_t>(
                   config.memoryLevelParallelism))
        .field("seed", config.seed)
        .field("physicalThreshold", config.physicalThreshold);
    addGeometryFields(fp, config.geometry);
    addTimingFields(fp, config.timing);
}

/**
 * The traffic digest: identical for every scheme evaluated on the
 * same workload under the same base config, so baseline and
 * protected runs generate byte-identical request streams (the
 * weighted-speedup metric compares paired runs).
 */
std::uint64_t
systemTrafficDigest(const SystemConfig &config,
                    const workloads::WorkloadSpec &workload)
{
    exp::Fingerprint fp;
    fp.tag("system-traffic");
    addSystemTrafficFields(fp, config);
    addWorkloadFields(fp, workload);
    return fp.digest();
}

/** The full cell digest (cache identity): traffic plus scheme. */
std::uint64_t
systemCellDigest(const SystemConfig &config,
                 const workloads::WorkloadSpec &workload,
                 schemes::SchemeKind kind)
{
    exp::Fingerprint fp;
    fp.tag("system-cell");
    addSystemTrafficFields(fp, config);
    addWorkloadFields(fp, workload);
    addSchemeFields(fp, cellSpec(config, kind));
    return fp.digest();
}

/** ActEngineConfig fields minus the scheme axis. */
void
addActTrafficFields(exp::Fingerprint &fp,
                    const ActEngineConfig &config)
{
    // analyze: fp-exempt(scheme) — same split as the system grid:
    // every scheme must face the identical attack stream, so the
    // scheme axis only enters the cell digest (addSchemeFields).
    // analyze: fp-exempt(obs) — tracing sink; never fingerprinted.
    fp.field("rowsPerBank", config.rowsPerBank)
        .field("actRate", config.actRate)
        .field("windows", config.windows)
        .field("faultRadius",
               static_cast<std::uint64_t>(config.faultRadius))
        .field("physicalThreshold", config.physicalThreshold)
        .field("remap", config.remap)
        .field("remapSeed", config.remapSeed);
    addTimingFields(fp, config.timing);
}

std::uint64_t
actTrafficDigest(const ActEngineConfig &config,
                 std::size_t pattern_index,
                 const std::string &pattern_name,
                 std::uint64_t seed)
{
    exp::Fingerprint fp;
    fp.tag("act-traffic");
    addActTrafficFields(fp, config);
    fp.field("patternIndex",
             static_cast<std::uint64_t>(pattern_index))
        .field("patternName", pattern_name)
        .field("suiteSeed", seed);
    return fp.digest();
}

std::uint64_t
actCellDigest(const ActEngineConfig &config,
              std::size_t pattern_index,
              const std::string &pattern_name, std::uint64_t seed,
              schemes::SchemeKind kind)
{
    exp::Fingerprint fp;
    fp.tag("act-cell");
    addActTrafficFields(fp, config);
    fp.field("patternIndex",
             static_cast<std::uint64_t>(pattern_index))
        .field("patternName", pattern_name)
        .field("suiteSeed", seed);
    addSchemeFields(fp, cellSpec(config, kind));
    return fp.digest();
}

// ---- result conversion ---------------------------------------------

exp::CellResult
toCellResult(const SystemResult &r)
{
    exp::CellResult out;
    out.stats.acts = r.acts;
    out.stats.requests = r.requests;
    out.stats.victimRowsRefreshed = r.victimRowsRefreshed;
    out.stats.bitFlips = r.bitFlips;
    out.stats.energyOverhead = r.refreshEnergyOverhead;
    out.stats.rowHitRate = r.rowHitRate;
    out.stats.windows = r.windows;
    out.stats.coreRequests = r.coreRequests;
    return out;
}

exp::CellResult
toCellResult(const ActEngineResult &r)
{
    exp::CellResult out;
    out.stats.acts = r.acts;
    out.stats.victimRowsRefreshed = r.victimRowsRefreshed;
    out.stats.bitFlips = r.bitFlips;
    out.stats.energyOverhead = r.refreshEnergyOverhead;
    out.stats.windows = r.windows;
    return out;
}

exp::CellResult
skippedCell(const std::string &error)
{
    exp::CellResult out;
    out.error = error;
    return out;
}

OverheadRow
toOverheadRow(const exp::CellKey &key, const exp::CellResult &r)
{
    OverheadRow row;
    row.workload = key.workload;
    row.scheme = key.scheme;
    row.error = r.error;
    if (!r.skipped()) {
        row.victimRows = r.stats.victimRowsRefreshed;
        row.bitFlips = r.stats.bitFlips;
        row.energyOverhead = r.stats.energyOverhead;
        row.perfLoss = r.stats.perfLoss;
    }
    return row;
}

} // namespace

std::uint64_t
schemeSpecDigest(const schemes::SchemeSpec &spec)
{
    exp::Fingerprint fp;
    fp.tag("scheme-spec");
    addSchemeFields(fp, spec);
    return fp.digest();
}

std::vector<OverheadRow>
runOverheadGrid(const SystemConfig &base,
                const std::vector<workloads::WorkloadSpec> &suite,
                const std::vector<schemes::SchemeKind> &kinds,
                exp::Runner &runner, const std::string &label)
{
    // Stage 1: one unprotected baseline per workload.
    exp::ExperimentSpec baselines;
    baselines.name = label + "/baseline";
    for (const auto &workload : suite) {
        SystemConfig none = base;
        none.scheme.kind = schemes::SchemeKind::None;
        const std::uint64_t traffic_seed = exp::deriveSeed(
            systemTrafficDigest(base, workload));

        exp::Cell cell;
        cell.key = {baselines.name, workload.name,
                    schemes::schemeKindName(
                        schemes::SchemeKind::None),
                    systemCellDigest(base, workload,
                                     schemes::SchemeKind::None)};
        // One closure serves both entry points: `body` is the
        // untraced call, `obsBody` the traced one. The sink never
        // feeds back into the run, so both yield identical results.
        const auto run_cell = [none, workload,
                               traffic_seed](obs::Sink *sink) {
            const Result<void> valid = schemes::validateSchemeSpec(
                cellSpec(none, schemes::SchemeKind::None));
            if (!valid.ok())
                return skippedCell(valid.error().describe());
            SystemConfig config = none;
            config.seed = traffic_seed;
            config.obs = sink;
            return toCellResult(runSystem(config, workload));
        };
        cell.body = [run_cell]() { return run_cell(nullptr); };
        cell.obsBody = run_cell;
        baselines.cells.push_back(std::move(cell));
    }
    const std::vector<exp::CellResult> baseline_results =
        runner.run(baselines);

    // Stage 2: every (workload, scheme) cell, each closing over its
    // workload's baseline outcome for the weighted-speedup metric.
    exp::ExperimentSpec grid;
    grid.name = label;
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const auto &workload = suite[wi];
        const exp::CellResult &baseline = baseline_results[wi];
        const std::uint64_t traffic_seed = exp::deriveSeed(
            systemTrafficDigest(base, workload));

        for (const auto kind : kinds) {
            SystemConfig protected_config = base;
            protected_config.scheme.kind = kind;

            exp::Cell cell;
            cell.key = {label, workload.name,
                        schemes::schemeKindName(kind),
                        systemCellDigest(base, workload, kind)};
            const auto run_cell = [protected_config, workload,
                                   traffic_seed, baseline,
                                   kind](obs::Sink *sink) {
                if (baseline.skipped())
                    return skippedCell("baseline: " +
                                       baseline.error);
                const Result<void> valid =
                    schemes::validateSchemeSpec(
                        cellSpec(protected_config, kind));
                if (!valid.ok())
                    return skippedCell(valid.error().describe());

                SystemConfig config = protected_config;
                config.seed = traffic_seed;
                config.obs = sink;
                const SystemResult r = runSystem(config, workload);

                SystemResult baseline_result;
                baseline_result.coreRequests =
                    baseline.stats.coreRequests;
                exp::CellResult out = toCellResult(r);
                out.stats.perfLoss =
                    r.speedupLossVs(baseline_result);
                return out;
            };
            cell.body = [run_cell]() { return run_cell(nullptr); };
            cell.obsBody = run_cell;
            grid.cells.push_back(std::move(cell));
        }
    }
    const std::vector<exp::CellResult> results = runner.run(grid);

    std::vector<OverheadRow> rows;
    rows.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        rows.push_back(toOverheadRow(grid.cells[i].key, results[i]));
    return rows;
}

std::vector<OverheadRow>
runOverheadGrid(const SystemConfig &base,
                const std::vector<workloads::WorkloadSpec> &suite,
                const std::vector<schemes::SchemeKind> &kinds)
{
    exp::Runner runner;
    return runOverheadGrid(base, suite, kinds, runner);
}

std::vector<OverheadRow>
runAdversarialGrid(const ActEngineConfig &base,
                   const std::vector<schemes::SchemeKind> &kinds,
                   std::uint64_t seed, exp::Runner &runner,
                   const std::string &label)
{
    // Learn the suite's shape (names and count) once; each cell
    // rebuilds its own pattern instance from a derived seed, so the
    // stream is a pure function of the cell spec and every scheme
    // faces the identical attack.
    std::vector<std::string> pattern_names;
    for (const auto &pattern :
         workloads::patterns::adversarialSuite(base.rowsPerBank,
                                               seed))
        pattern_names.push_back(pattern->name());

    exp::ExperimentSpec grid;
    grid.name = label;
    for (const auto kind : kinds) {
        for (std::size_t pi = 0; pi < pattern_names.size(); ++pi) {
            const std::uint64_t pattern_seed =
                exp::deriveSeed(actTrafficDigest(
                    base, pi, pattern_names[pi], seed));

            exp::Cell cell;
            cell.key = {label, pattern_names[pi],
                        schemes::schemeKindName(kind),
                        actCellDigest(base, pi, pattern_names[pi],
                                      seed, kind)};
            const auto run_cell =
                [base, kind, pi, pattern_seed](
                    obs::Sink *sink, const CancelToken *cancel) {
                    const Result<void> valid =
                        schemes::validateSchemeSpec(
                            cellSpec(base, kind));
                    if (!valid.ok())
                        return skippedCell(
                            valid.error().describe());

                    auto suite =
                        workloads::patterns::adversarialSuite(
                            base.rowsPerBank, pattern_seed);
                    ActEngineConfig config = base;
                    config.scheme.kind = kind;
                    config.obs = sink;
                    ActStreamEngine engine(config, *suite[pi]);
                    if (cancel && !engine.runCancellable(*cancel))
                        return skippedCell(
                            Error(ErrorCode::Timeout,
                                  "ACT stream cancelled mid-run")
                                .describe());
                    if (!cancel)
                        while (engine.step()) {
                        }
                    return toCellResult(engine.finish());
                };
            cell.body = [run_cell]() {
                return run_cell(nullptr, nullptr);
            };
            cell.obsBody = [run_cell](obs::Sink *sink) {
                return run_cell(sink, nullptr);
            };
            cell.cancellableBody =
                [run_cell](obs::Sink *sink,
                           const CancelToken &cancel) {
                    return run_cell(sink, &cancel);
                };
            grid.cells.push_back(std::move(cell));
        }
    }
    const std::vector<exp::CellResult> results = runner.run(grid);

    std::vector<OverheadRow> rows;
    rows.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        rows.push_back(toOverheadRow(grid.cells[i].key, results[i]));
    return rows;
}

std::vector<OverheadRow>
runAdversarialGrid(const ActEngineConfig &base,
                   const std::vector<schemes::SchemeKind> &kinds,
                   std::uint64_t seed)
{
    exp::Runner runner;
    return runAdversarialGrid(base, kinds, seed, runner);
}

} // namespace sim
} // namespace graphene
