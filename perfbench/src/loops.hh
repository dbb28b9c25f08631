/**
 * @file
 * The benchmark's own copies of the two simulation loops, built only
 * from public calls so that every call into a layer can be wrapped in
 * a span:
 *
 *  - copiedRunSystem(): the event loop of sim::runSystem (core
 *    generators → address decode → per-channel controller);
 *  - copiedRunActStream(): the ActStreamEngine::step loop (refresh
 *    catch-up → bank timing → pattern → fault model → scheme → NRR).
 *
 * A copy measures the real program only while it reproduces the
 * untraced run's simulated counters exactly; the callers check that
 * (and the self-tests pin it against runSystem / runActStream).
 *
 * The traffic seeds below re-derive the per-cell seeds that
 * sim::runOverheadGrid / runAdversarialGrid fold from their spec
 * fingerprints, so a copied loop replays the same traffic as the
 * grid cell it shadows. If the grid's seed derivation changes, the
 * traced run's digest check fails loudly rather than measuring
 * different traffic.
 */

#ifndef PERFBENCH_LOOPS_HH
#define PERFBENCH_LOOPS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/act_engine.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "stream.hh"
#include "workloads/profiles.hh"

namespace perfbench {

namespace dram = graphene::dram;
namespace obs = graphene::obs;
namespace schemes = graphene::schemes;
namespace sim = graphene::sim;
namespace workloads = graphene::workloads;

/** The seed runOverheadGrid gives every cell of @p workload. */
std::uint64_t systemTrafficSeed(const sim::SystemConfig &base,
                                const workloads::WorkloadSpec &workload);

/** The seed runAdversarialGrid gives pattern @p index of the suite. */
std::uint64_t attackPatternSeed(const sim::ActEngineConfig &base,
                                std::size_t index,
                                const std::string &name,
                                std::uint64_t suite_seed);

/** What the copied system loop reports beyond sim::SystemResult. */
struct SystemLoopResult
{
    sim::SystemResult result;
    double peakDisturbance = 0.0; ///< Max over every bank's FaultModel.
    /** Per flat bank: the scheme's victimRefreshEvents() (0 with no
     *  scheme), and the FaultModel's peak and flip count. */
    std::vector<std::uint64_t> bankVictimEvents;
    std::vector<double> bankPeak;
    std::vector<std::size_t> bankFlips;
};

/**
 * The runSystem event loop. With @p trace set, each generator, decode
 * and controller call is a span (`workloads.gen`, `dram.decode`,
 * @p access_span) under one `sim.system_loop` span, and building the
 * controllers and generators are spans too (`mem.controller_build`,
 * `workloads.gen_build`).
 */
graphene::Result<SystemLoopResult>
copiedRunSystem(const sim::SystemConfig &config,
                const workloads::WorkloadSpec &workload,
                SpanTrace *trace, const std::string &access_span);

/** What the copied engine loop reports beyond sim::ActEngineResult. */
struct EngineLoopResult
{
    sim::ActEngineResult result;
    std::uint64_t victimRefreshEvents = 0; ///< The scheme's count.
};

/**
 * The ActStreamEngine::step loop. With @p trace set, every call of one
 * ACT slot in @p sample_every is a span, under one `sim.engine_step`
 * span for the slot (a slot costs ~150 ns, so spanning every slot
 * would mostly time the timer); with @p capture set, the bank's
 * command stream is recorded for replay.
 */
graphene::Result<EngineLoopResult>
copiedRunActStream(const sim::ActEngineConfig &config,
                   workloads::ActPattern &pattern, SpanTrace *trace,
                   ActStream *capture, unsigned sample_every = 1);

/**
 * Per-flat-bank command streams out of a sink that traced a system
 * run: each bank's Act events merged by cycle with its channel's
 * PeriodicRef events (REF first on a tie, as the controller issues
 * it). Needs a sink whose rings dropped nothing.
 */
std::vector<ActStream> streamsFromSink(const obs::Sink &sink,
                                       const dram::Geometry &geometry,
                                       const std::string &label);

} // namespace perfbench

#endif // PERFBENCH_LOOPS_HH
