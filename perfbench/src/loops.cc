#include "loops.hh"

#include <algorithm>
#include <memory>
#include <queue>

#include "exp/fingerprint.hh"
#include "mem/controller.hh"
#include "model/energy.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

using graphene::Error;
using graphene::ErrorCode;
using graphene::RefreshAction;
using graphene::Result;
namespace exp = graphene::exp;

namespace {

// ---- the grids' traffic fingerprints, field for field ---------------

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
addSystemTrafficFields(exp::Fingerprint &fp,
                       const sim::SystemConfig &config)
{
    const dram::Geometry &g = config.geometry;
    fp.field("numCores", static_cast<std::uint64_t>(config.numCores))
        .field("windows", config.windows)
        .field("memoryLevelParallelism",
               static_cast<std::uint64_t>(
                   config.memoryLevelParallelism))
        .field("seed", config.seed)
        .field("physicalThreshold", config.physicalThreshold);
    fp.field("channels", static_cast<std::uint64_t>(g.channels))
        .field("ranksPerChannel",
               static_cast<std::uint64_t>(g.ranksPerChannel))
        .field("banksPerRank",
               static_cast<std::uint64_t>(g.banksPerRank))
        .field("rowsPerBank", g.rowsPerBank)
        .field("bytesPerRow", g.bytesPerRow);
    addTimingFields(fp, config.timing);
}

void
addWorkloadFields(exp::Fingerprint &fp,
                  const workloads::WorkloadSpec &workload)
{
    fp.field("workload", workload.name)
        .field("coreCount",
               static_cast<std::uint64_t>(workload.coreParams.size()));
    for (const auto &p : workload.coreParams) {
        fp.field("app", p.name)
            .field("sequentialFraction", p.sequentialFraction)
            .field("zipfTheta", p.zipfTheta)
            .field("workingSetRows", p.workingSetRows)
            .field("meanGapCycles", p.meanGapCycles)
            .field("writeFraction", p.writeFraction);
    }
}

} // namespace

std::uint64_t
systemTrafficSeed(const sim::SystemConfig &base,
                  const workloads::WorkloadSpec &workload)
{
    exp::Fingerprint fp;
    fp.tag("system-traffic");
    addSystemTrafficFields(fp, base);
    addWorkloadFields(fp, workload);
    return exp::deriveSeed(fp.digest());
}

std::uint64_t
attackPatternSeed(const sim::ActEngineConfig &base, std::size_t index,
                  const std::string &name, std::uint64_t suite_seed)
{
    exp::Fingerprint fp;
    fp.tag("act-traffic");
    fp.field("rowsPerBank", base.rowsPerBank)
        .field("actRate", base.actRate)
        .field("windows", base.windows)
        .field("faultRadius",
               static_cast<std::uint64_t>(base.faultRadius))
        .field("physicalThreshold", base.physicalThreshold)
        .field("remap", base.remap)
        .field("remapSeed", base.remapSeed);
    addTimingFields(fp, base.timing);
    fp.field("patternIndex", static_cast<std::uint64_t>(index))
        .field("patternName", name)
        .field("suiteSeed", suite_seed);
    return exp::deriveSeed(fp.digest());
}

Result<SystemLoopResult>
copiedRunSystem(const sim::SystemConfig &config,
                const workloads::WorkloadSpec &workload,
                SpanTrace *trace, const std::string &access_span)
{
    const Result<void> valid = config.validate();
    if (!valid.ok())
        return valid.error();
    if (workload.coreParams.size() < config.numCores)
        return Error(ErrorCode::Config,
                     "workload " + workload.name + " has too few cores");

    unsigned loop_id = 0, gen_id = 0, decode_id = 0, access_id = 0,
             ctrl_build_id = 0, gen_build_id = 0;
    if (trace) {
        loop_id = trace->id("sim.system_loop");
        ctrl_build_id = trace->id("mem.controller_build");
        gen_build_id = trace->id("workloads.gen_build");
        gen_id = trace->id("workloads.gen");
        decode_id = trace->id("dram.decode");
        access_id = trace->id(access_span);
    }

    dram::AddressMapper mapper(config.geometry);

    graphene::mem::ControllerConfig ctrl_config;
    ctrl_config.timing = config.timing;
    ctrl_config.banksPerRank = config.geometry.banksPerRank;
    ctrl_config.rowsPerBank = config.geometry.rowsPerBank;
    ctrl_config.scheme = config.scheme;
    ctrl_config.fault.rowHammerThreshold = static_cast<double>(
        config.physicalThreshold ? config.physicalThreshold
                                 : config.scheme.rowHammerThreshold);
    ctrl_config.fault.mu = {1.0};
    ctrl_config.obs = config.obs;

    if (config.obs)
        config.obs->metrics.beginWindows(config.timing.cREFW());

    std::vector<std::unique_ptr<graphene::mem::ChannelController>>
        channels;
    for (unsigned c = 0; c < config.geometry.channels; ++c) {
        graphene::mem::ControllerConfig per_channel = ctrl_config;
        per_channel.scheme.seed = config.seed + 17 * c;
        per_channel.obsBankBase = c * config.geometry.banksPerRank;
        channels.push_back(maybeSpan(trace, ctrl_build_id, [&] {
            return std::make_unique<graphene::mem::ChannelController>(
                per_channel);
        }));
    }

    std::vector<workloads::SyntheticGenerator> cores;
    cores.reserve(config.numCores);
    for (unsigned i = 0; i < config.numCores; ++i)
        maybeSpan(trace, gen_build_id, [&] {
            cores.emplace_back(workload.coreParams[i], mapper, i,
                               config.seed + i);
        });

    const Cycle horizon{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows)};

    using Event = std::pair<Cycle, unsigned>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    const unsigned mlp = std::max(1u, config.memoryLevelParallelism);
    for (unsigned i = 0; i < config.numCores; ++i)
        for (unsigned slot = 0; slot < mlp; ++slot)
            queue.emplace(slot, i);

    SystemLoopResult out;
    sim::SystemResult &result = out.result;
    result.coreRequests.assign(config.numCores, 0);

    if (trace)
        trace->open(loop_id);
    while (!queue.empty()) {
        const auto [issue, core] = queue.top();
        queue.pop();
        if (issue >= horizon)
            continue;

        const workloads::CoreAccess access = maybeSpan(
            trace, gen_id, [&] { return cores[core].next(); });
        const dram::DecodedAddr d = maybeSpan(
            trace, decode_id, [&] { return mapper.decode(access.addr); });
        auto &channel = *channels[d.channel];
        const graphene::mem::ServiceResult served =
            maybeSpan(trace, access_id, [&] {
                return channel.access(issue, d.bank, d.row,
                                      access.isWrite);
            });

        ++result.coreRequests[core];
        queue.emplace(served.completion + access.gap, core);
    }
    if (trace)
        trace->close();

    std::uint64_t victim_rows = 0, acts = 0, requests = 0, flips = 0;
    double hit_rate = 0.0;
    for (auto &channel : channels) {
        channel->catchUpRefresh(horizon);
        victim_rows += channel->victimRowsRefreshed();
        acts += channel->actCount().value();
        requests += channel->requestCount();
        hit_rate += channel->rowHitRate();
        for (unsigned b = 0; b < config.geometry.banksPerRank; ++b) {
            const dram::FaultModel &fault =
                channel->rank().faultModel(b);
            flips += fault.flips().size();
            out.peakDisturbance =
                std::max(out.peakDisturbance, fault.peakDisturbance());
            out.bankPeak.push_back(fault.peakDisturbance());
            out.bankFlips.push_back(fault.flips().size());
            const graphene::ProtectionScheme *scheme =
                channel->scheme(b);
            out.bankVictimEvents.push_back(
                scheme ? scheme->victimRefreshEvents() : 0);
        }
    }

    if (config.obs)
        config.obs->metrics.finish();

    result.requests = requests;
    result.acts = acts;
    result.victimRowsRefreshed = victim_rows;
    result.bitFlips = flips;
    result.rowHitRate = hit_rate / config.geometry.channels;
    result.windows = config.windows;
    result.refreshEnergyOverhead =
        graphene::model::EnergyModel::refreshOverhead(
            victim_rows, config.geometry.totalBanks(), config.windows);
    return out;
}

Result<EngineLoopResult>
copiedRunActStream(const sim::ActEngineConfig &config,
                   workloads::ActPattern &pattern, SpanTrace *trace,
                   ActStream *capture, unsigned sample_every)
{
    const Result<void> valid = config.validate();
    if (!valid.ok())
        return valid.error();

    schemes::SchemeSpec spec = config.scheme;
    spec.rowsPerBank = config.rowsPerBank;
    spec.timing = config.timing;

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

    dram::Rank rank(config.timing, 1, config.rowsPerBank, fault);
    auto built = schemes::makeScheme(spec);
    if (!built.ok())
        return built.error();
    std::unique_ptr<graphene::ProtectionScheme> scheme =
        std::move(built).value();

    const Cycle horizon{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows)};
    const double spacing =
        static_cast<double>(config.timing.cRC().value()) /
        config.actRate;

    const std::string scheme_name = schemes::schemeKindName(spec.kind);
    unsigned step_id = 0, ref_id = 0, scheme_ref_id = 0, bank_id = 0,
             pattern_id = 0, rank_act_id = 0, scheme_act_id = 0,
             nrr_id = 0;
    if (trace) {
        step_id = trace->id("sim.engine_step");
        ref_id = trace->id("dram.rank_ref");
        scheme_ref_id =
            trace->id("schemes." + scheme_name + ".on_refresh");
        bank_id = trace->id("dram.bank");
        pattern_id = trace->id("workloads.pattern");
        rank_act_id = trace->id("dram.rank_act");
        scheme_act_id =
            trace->id("schemes." + scheme_name + ".on_activate");
        nrr_id = trace->id("dram.nrr");
    }

    auto record = [&](Cycle cycle, Row row, StreamEvent::Kind kind,
                      unsigned r = 0) {
        if (capture)
            capture->events.push_back(
                {cycle, row, kind, static_cast<std::uint8_t>(r)});
    };

    EngineLoopResult out;
    sim::ActEngineResult &result = out.result;
    RefreshAction action;
    SpanTrace *t = nullptr; // `trace` on sampled slots, else null

    auto apply = [&](Cycle cycle) {
        if (action.empty())
            return;
        for (Row aggressor : action.nrrAggressors) {
            rank.issueNrr(cycle, 0, aggressor, spec.blastRadius);
            ++result.nrrEvents;
            record(cycle, aggressor, StreamEvent::Kind::Nrr,
                   spec.blastRadius);
        }
        if (!action.victimRows.empty()) {
            std::vector<Row> rows;
            rows.reserve(action.victimRows.size());
            for (Row r : action.victimRows)
                if (r.value() < config.rowsPerBank)
                    rows.push_back(r);
            rank.refreshVictimRows(cycle, 0, rows);
            for (Row r : rows)
                record(cycle, r, StreamEvent::Kind::Victim);
        }
        action.clear();
    };

    auto catch_up = [&](Cycle cycle) {
        while (rank.nextRefreshDue() <= cycle) {
            const Cycle due = rank.nextRefreshDue();
            maybeSpan(t, ref_id, [&] { rank.issueRefresh(due); });
            ++result.refreshCommands;
            record(due, Row::invalid(), StreamEvent::Kind::Ref);
            if (scheme) {
                action.clear();
                maybeSpan(t, scheme_ref_id,
                          [&] { scheme->onRefresh(due, action); });
                maybeSpan(t, nrr_id, [&] { apply(due); });
            }
        }
    };

    dram::Bank &bank = rank.bank(0);
    double next_act = 0.0;
    auto step = [&]() -> bool {
        Cycle cycle{static_cast<std::uint64_t>(next_act)};
        if (cycle >= horizon)
            return false;
        catch_up(cycle);
        cycle = maybeSpan(t, bank_id,
                          [&] { return bank.earliestAct(cycle); });
        if (cycle >= horizon)
            return false;
        catch_up(cycle);
        cycle = maybeSpan(t, bank_id,
                          [&] { return bank.earliestAct(cycle); });
        if (cycle >= horizon)
            return false;

        const Row row =
            maybeSpan(t, pattern_id, [&] { return pattern.next(); });
        maybeSpan(t, bank_id, [&] {
            bank.issueAct(cycle, row);
            bank.issuePrecharge(bank.earliestPrecharge(cycle));
        });
        ++result.acts;
        record(cycle, row, StreamEvent::Kind::Act);
        maybeSpan(t, rank_act_id,
                  [&] { rank.notifyActivate(cycle, 0, row); });
        if (scheme) {
            action.clear();
            maybeSpan(t, scheme_act_id,
                      [&] { scheme->onActivate(cycle, row, action); });
            maybeSpan(t, nrr_id, [&] { apply(cycle); });
        }
        next_act = static_cast<double>(cycle.value()) + spacing;
        return true;
    };
    for (std::uint64_t slot = 0;; ++slot) {
        t = trace && slot % std::max(sample_every, 1u) == 0 ? trace
                                                            : nullptr;
        if (!maybeSpan(t, step_id, step))
            break;
    }

    result.victimRowsRefreshed = rank.nrrRowCount();
    result.bitFlips = rank.faultModel(0).flips().size();
    result.peakDisturbance = rank.faultModel(0).peakDisturbance();
    result.windows = config.windows;
    result.refreshEnergyOverhead =
        graphene::model::EnergyModel::refreshOverhead(
            result.victimRowsRefreshed, 1, config.windows);
    out.victimRefreshEvents = scheme ? scheme->victimRefreshEvents() : 0;
    return out;
}

std::vector<ActStream>
streamsFromSink(const obs::Sink &sink, const dram::Geometry &geometry,
                const std::string &label)
{
    const obs::Tracer &tracer = sink.tracer;
    const unsigned banks = geometry.banksPerRank;
    std::vector<ActStream> streams;
    for (unsigned c = 0; c < geometry.channels; ++c) {
        std::vector<StreamEvent> refs;
        if (c * banks < tracer.banks())
            for (const obs::Event &e : tracer.ring(c * banks).events())
                if (e.kind == obs::EventKind::PeriodicRef)
                    refs.push_back({e.cycle, Row::invalid(),
                                    StreamEvent::Kind::Ref, 0});
        for (unsigned b = 0; b < banks; ++b) {
            const unsigned flat = c * banks + b;
            ActStream stream;
            stream.label = graphene::strprintf("%s ch%u", label.c_str(),
                                               c);
            stream.bank = flat;
            std::vector<StreamEvent> acts;
            if (flat < tracer.banks())
                for (const obs::Event &e : tracer.ring(flat).events())
                    if (e.kind == obs::EventKind::Act)
                        acts.push_back(
                            {e.cycle, e.row, StreamEvent::Kind::Act, 0});
            stream.events.reserve(acts.size() + refs.size());
            std::size_t r = 0;
            for (const StreamEvent &act : acts) {
                while (r < refs.size() && refs[r].cycle <= act.cycle)
                    stream.events.push_back(refs[r++]);
                stream.events.push_back(act);
            }
            while (r < refs.size())
                stream.events.push_back(refs[r++]);
            streams.push_back(std::move(stream));
        }
    }
    return streams;
}

} // namespace perfbench
