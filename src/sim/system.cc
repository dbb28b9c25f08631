#include "sim/system.hh"

#include <algorithm>
#include <memory>
#include <queue>

#include "common/logging.hh"
#include "model/energy.hh"

namespace graphene {
namespace sim {

double
SystemResult::speedupLossVs(const SystemResult &baseline) const
{
    GRAPHENE_CHECK(coreRequests.size() == baseline.coreRequests.size(),
                   "speedup comparison across different core counts");
    double ws = 0.0;
    for (std::size_t i = 0; i < coreRequests.size(); ++i) {
        GRAPHENE_CHECK(baseline.coreRequests[i] != 0,
                       "baseline core %zu made no progress", i);
        ws += static_cast<double>(coreRequests[i]) /
              static_cast<double>(baseline.coreRequests[i]);
    }
    const double loss =
        1.0 - ws / static_cast<double>(coreRequests.size());
    return loss;
}

Result<void>
SystemConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "system config");
    if (numCores == 0)
        errors.add("need at least one core");
    if (!(windows > 0.0))
        errors.add("simulated span must be a positive number of "
                   "refresh windows");
    if (geometry.channels == 0)
        errors.add("need at least one channel");
    if (geometry.banksPerRank == 0)
        errors.add("need at least one bank per rank");
    if (geometry.rowsPerBank == 0)
        errors.add("need at least one row per bank");

    const Result<void> spec_valid = schemes::validateSchemeSpec(
        schemes::bankSpec(scheme, geometry.rowsPerBank, timing));
    if (!spec_valid.ok()) {
        errors.add("scheme spec: " + spec_valid.error().message());
        for (const auto &note : spec_valid.error().notes())
            errors.add("scheme spec: " + note);
    }
    return errors.finish();
}

SystemResult
runSystem(const SystemConfig &config,
          const workloads::WorkloadSpec &workload)
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "system: invalid config (validate() before "
                   "running): %s", valid.error().describe().c_str());
    GRAPHENE_CHECK(workload.coreParams.size() >= config.numCores,
                   "workload %s supplies %zu cores, need %u",
                   workload.name.c_str(), workload.coreParams.size(),
                   config.numCores);

    dram::AddressMapper mapper(config.geometry);

    // One controller per channel; fault model per its banks.
    mem::ControllerConfig ctrl_config;
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

    std::vector<std::unique_ptr<mem::ChannelController>> channels;
    for (unsigned c = 0; c < config.geometry.channels; ++c) {
        mem::ControllerConfig per_channel = ctrl_config;
        per_channel.scheme.seed = config.seed + 17 * c;
        per_channel.obsBankBase = c * config.geometry.banksPerRank;
        channels.push_back(
            std::make_unique<mem::ChannelController>(per_channel));
    }

    std::vector<workloads::SyntheticGenerator> cores;
    cores.reserve(config.numCores);
    for (unsigned i = 0; i < config.numCores; ++i)
        cores.emplace_back(workload.coreParams[i], mapper, i,
                           config.seed + i);

    const Cycle horizon{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows)};

    // Event queue of (next issue cycle, core id); each core keeps up
    // to memoryLevelParallelism requests in flight, each modelled as
    // an independent closed loop drawing from the core's generator.
    using Event = std::pair<Cycle, unsigned>;
    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        queue;
    const unsigned mlp = std::max(1u, config.memoryLevelParallelism);
    for (unsigned i = 0; i < config.numCores; ++i)
        for (unsigned slot = 0; slot < mlp; ++slot)
            queue.emplace(slot, i);

    SystemResult result;
    result.coreRequests.assign(config.numCores, 0);

    while (!queue.empty()) {
        const auto [issue, core] = queue.top();
        queue.pop();
        if (issue >= horizon)
            continue;

        const workloads::CoreAccess access = cores[core].next();
        const dram::DecodedAddr d = mapper.decode(access.addr);
        auto &channel = *channels[d.channel];
        const mem::ServiceResult served =
            channel.access(issue, d.bank, d.row, access.isWrite);

        ++result.coreRequests[core];
        queue.emplace(served.completion + access.gap, core);
    }

    std::uint64_t victim_rows = 0;
    std::uint64_t acts = 0;
    std::uint64_t requests = 0;
    std::uint64_t flips = 0;
    double hit_rate = 0.0;
    for (auto &channel : channels) {
        channel->catchUpRefresh(horizon);
        victim_rows += channel->victimRowsRefreshed();
        acts += channel->actCount().value();
        requests += channel->requestCount();
        hit_rate += channel->rowHitRate();
        for (unsigned b = 0; b < config.geometry.banksPerRank; ++b)
            flips += channel->rank().faultModel(b).flips().size();
    }

    if (config.obs)
        config.obs->metrics.finish();

    result.requests = requests;
    result.acts = acts;
    result.victimRowsRefreshed = victim_rows;
    result.bitFlips = flips;
    result.rowHitRate = hit_rate / config.geometry.channels;
    result.windows = config.windows;
    result.refreshEnergyOverhead = model::EnergyModel::refreshOverhead(
        victim_rows, config.geometry.totalBanks(), config.windows);
    return result;
}

} // namespace sim
} // namespace graphene
