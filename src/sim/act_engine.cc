#include "sim/act_engine.hh"

#include <algorithm>

#include "ckpt/io.hh"
#include "common/logging.hh"
#include "model/energy.hh"

namespace graphene {
namespace sim {

Result<void>
ActEngineConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "act engine config");
    if (!(actRate > 0.0 && actRate <= 1.0))
        errors.add("act engine: rate must lie in (0, 1]");
    if (!(windows > 0.0))
        errors.add("act engine: need a positive duration");
    if (rowsPerBank == 0)
        errors.add("act engine: need at least one row per bank");

    const Result<void> spec_valid = schemes::validateSchemeSpec(
        schemes::bankSpec(scheme, rowsPerBank, timing));
    if (!spec_valid.ok()) {
        errors.add("scheme spec: " + spec_valid.error().message());
        for (const auto &note : spec_valid.error().notes())
            errors.add("scheme spec: " + note);
    }
    return errors.finish();
}

namespace {

dram::FaultConfig
faultConfigFor(const ActEngineConfig &config)
{
    dram::FaultConfig fault;
    fault.rowHammerThreshold = static_cast<double>(
        config.physicalThreshold ? config.physicalThreshold
                                 : config.scheme.rowHammerThreshold);
    const unsigned radius = std::max(config.faultRadius, 1u);
    fault.mu.assign(radius, 0.0);
    for (unsigned i = 1; i <= radius; ++i)
        fault.mu[i - 1] = 1.0 / (static_cast<double>(i) * i);
    fault.remap = config.remap;
    fault.remapSeed = config.remapSeed;
    return fault;
}

/** The per-bank scheme spec; aborts if @p config fails validate(). */
schemes::SchemeSpec
validatedSpec(const ActEngineConfig &config)
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "act engine: invalid config (validate() before "
                   "running): %s", valid.error().describe().c_str());
    return schemes::bankSpec(config.scheme, config.rowsPerBank,
                             config.timing);
}

} // namespace

ActStreamEngine::ActStreamEngine(const ActEngineConfig &config,
                                 workloads::ActPattern &pattern)
    : _config(config), _pattern(pattern),
      // Chunk 0: the engine's victim refreshes stay atomic.
      _kernel(dram::Rank(config.timing, 1, config.rowsPerBank,
                         faultConfigFor(config)),
              mem::buildBankSchemes(
                  validatedSpec(config), 1,
                  [seed = config.scheme.seed](unsigned) { return seed; }),
              config.scheme.blastRadius, 0, config.obs),
      _horizon{static_cast<std::uint64_t>(
          static_cast<double>(config.timing.cREFW().value()) *
          config.windows)},
      _spacing(static_cast<double>(config.timing.cRC().value()) /
               config.actRate)
{
    if (_config.obs)
        _config.obs->metrics.beginWindows(_config.timing.cREFW());
}

bool
ActStreamEngine::step()
{
    if (_done)
        return false;

    // Victim refreshes and REF may push the bank's ACT availability
    // past the nominal slot, and a REF caught up on the way there can
    // push it once more.
    dram::Bank &bank = _kernel.rank().bank(0);
    Cycle cycle{static_cast<std::uint64_t>(_nextAct)};
    for (int settle = 0; settle < 2 && cycle < _horizon; ++settle) {
        _kernel.catchUpRefresh(cycle);
        cycle = bank.earliestAct(cycle);
    }
    if (cycle >= _horizon) {
        _done = true;
        return false;
    }

    const Row row = _pattern.next();
    bank.issueAct(cycle, row);
    bank.issuePrecharge(bank.earliestPrecharge(cycle));
    _kernel.activate(cycle, 0, row);

    _nextAct = static_cast<double>(cycle.value()) + _spacing;
    return true;
}

bool
ActStreamEngine::runUntil(Cycle stop)
{
    while (!_done && nextActCycle() < stop && step()) {
    }
    // The next ACT slot lying at/past the horizon means the stream is
    // over, but only a step() call latches _done — take it eagerly
    // (it issues nothing) so quantum-driven callers whose stop clamps
    // to the horizon still observe completion.
    if (!_done && nextActCycle() >= _horizon)
        step();
    return _done;
}

ActEngineResult
ActStreamEngine::run()
{
    while (step()) {
    }
    return finish();
}

bool
ActStreamEngine::runCancellable(const CancelToken &cancel)
{
    std::uint32_t tick = 0;
    while (step()) {
        if ((++tick & 0x1fffu) == 0 && cancel.cancelled())
            return false;
    }
    return true;
}

ActEngineResult
ActStreamEngine::finish()
{
    if (_config.obs)
        _config.obs->metrics.finish();
    const std::uint64_t victims = victimRowsRefreshedSoFar();
    return {.acts = actsSoFar(),
            .victimRowsRefreshed = victims,
            .nrrEvents = nrrEventsSoFar(),
            .refreshCommands = refreshCommandsSoFar(),
            .bitFlips = bitFlipsSoFar(),
            .peakDisturbance =
                _kernel.rank().faultModel(0).peakDisturbance(),
            .refreshEnergyOverhead = model::EnergyModel::refreshOverhead(
                victims, 1, _config.windows),
            .windows = _config.windows};
}

std::uint64_t
ActStreamEngine::configFingerprint() const
{
    // Encode every semantic knob with the checkpoint encoder itself
    // (fixed widths, exact double bits) and digest the bytes. The
    // obs sink is deliberately absent: tracing never changes results.
    ckpt::Writer enc;
    enc.str("graphene-act-engine-v1");
    enc.u32(static_cast<std::uint32_t>(_config.scheme.kind));
    enc.u64(_config.scheme.rowHammerThreshold);
    enc.u64(_config.scheme.rowsPerBank);
    enc.u32(_config.scheme.blastRadius);
    enc.u32(_config.scheme.grapheneK);
    enc.boolean(_config.scheme.cbtAssumeContiguous);
    enc.u64(_config.scheme.seed);
    const dram::TimingParams &t = _config.timing;
    enc.f64(t.tCK.value());
    enc.f64(t.tREFI.value());
    enc.f64(t.tRFC.value());
    enc.f64(t.tRC.value());
    enc.f64(t.tRCD.value());
    enc.f64(t.tRP.value());
    enc.f64(t.tCL.value());
    enc.f64(t.tRAS.value());
    enc.f64(t.tBL.value());
    enc.f64(t.tREFW.value());
    enc.f64(t.tFAW.value());
    enc.u64(_config.rowsPerBank);
    enc.f64(_config.actRate);
    enc.f64(_config.windows);
    enc.u32(_config.faultRadius);
    enc.u64(_config.physicalThreshold);
    enc.boolean(_config.remap);
    enc.u64(_config.remapSeed);
    enc.str(_pattern.name());
    return ckpt::fnv1a(enc.data().data(), enc.size());
}

void
ActStreamEngine::saveState(ckpt::Writer &w) const
{
    w.f64(_nextAct);
    w.boolean(_done);
    _kernel.saveState(w);
    _pattern.saveState(w);
    w.boolean(_config.obs != nullptr);
    if (_config.obs)
        _config.obs->metrics.saveState(w);
}

void
ActStreamEngine::restoreState(ckpt::Reader &r)
{
    _nextAct = r.f64();
    _done = r.boolean();
    _kernel.restoreState(r);
    _pattern.restoreState(r);
    const bool has_obs = r.boolean();
    if (has_obs && _config.obs) {
        _config.obs->metrics.restoreState(r);
    } else if (has_obs) {
        // Saved with a sink, resuming without one: drain the bytes so
        // finish() still validates, and drop the series.
        obs::MetricsRegistry().restoreState(r);
    } else if (_config.obs) {
        // Saved without a sink, resuming with one: the series starts
        // at the resume point; totals-based artifacts still match.
        _config.obs->metrics.beginWindows(_config.timing.cREFW());
    }
}

std::vector<std::uint8_t>
ActStreamEngine::saveCheckpoint() const
{
    ckpt::Writer w;
    saveState(w);
    return ckpt::encode(configFingerprint(), w.data());
}

Result<void>
ActStreamEngine::restoreCheckpoint(
    const std::vector<std::uint8_t> &bytes)
{
    Result<ckpt::Reader> payload =
        ckpt::payloadReader(bytes, configFingerprint());
    if (!payload.ok())
        return payload.error();
    ckpt::Reader &r = payload.value();
    restoreState(r);
    return r.finish();
}

ActEngineResult
runActStream(const ActEngineConfig &config,
             workloads::ActPattern &pattern)
{
    ActStreamEngine engine(config, pattern);
    while (engine.step()) {
    }
    return engine.finish();
}

} // namespace sim
} // namespace graphene
