#include "mem/protected_rank.hh"

#include <utility>

#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace mem {

ProtectedRank::ProtectedRank(dram::Rank rank, Schemes schemes,
                             unsigned blast_radius, unsigned chunk_rows,
                             obs::Sink *obs, unsigned obs_bank_base)
    : _rank(std::move(rank)), _schemes(std::move(schemes)),
      _blastRadius(blast_radius), _chunkRows(chunk_rows),
      _debt(_rank.numBanks(), Cycle{})
{
    GRAPHENE_CHECK(_schemes.size() == _rank.numBanks(),
                   "protected rank: one scheme per bank");
    _probes.reserve(_schemes.size());
    for (unsigned b = 0; b < _schemes.size(); ++b) {
        _probes.push_back(obs::probeFor(obs, obs_bank_base + b));
        if (_schemes[b])
            _schemes[b]->attachProbe(_probes[b]);
    }
}

ProtectionScheme *
ProtectedRank::scheme(unsigned bank) const
{
    GRAPHENE_CHECK(bank < _schemes.size(),
                   "bank index %u out of range", bank);
    return _schemes[bank].get();
}

void
ProtectedRank::catchUpRefresh(Cycle cycle)
{
    while (_rank.nextRefreshDue() <= cycle) {
        const Cycle due = _rank.nextRefreshDue();
        _rank.issueRefresh(due);
        _probes[0].emit(due, obs::EventKind::PeriodicRef);
        _probes[0].count(due, "mem.refs");
        for (unsigned b = 0; b < _schemes.size(); ++b) {
            if (!_schemes[b])
                continue;
            _action.clear();
            _schemes[b]->onRefresh(due, _action);
            applyRefreshAction(due, b);
        }
    }
}

void
ProtectedRank::activate(Cycle cycle, unsigned bank, Row row)
{
    ++_acts;
    _probes[bank].emit(cycle, obs::EventKind::Act, row);
    _probes[bank].count(cycle, "mem.acts");
    _rank.notifyActivate(cycle, bank, row);
    if (!_schemes[bank])
        return;
    _action.clear();
    _schemes[bank]->onActivate(cycle, row, _action);
    applyRefreshAction(cycle, bank);
}

void
ProtectedRank::applyRefreshAction(Cycle cycle, unsigned bank)
{
    const std::size_t nrrs = _action.nrrAggressors.size();
    for (Row aggressor : _action.nrrAggressors)
        _rank.issueNrr(cycle, bank, aggressor, _blastRadius);
    _nrrEvents += nrrs;
    if (nrrs)
        _probes[bank].count(cycle, "mem.nrr_events",
                            static_cast<double>(nrrs));
    std::vector<Row> &rows = _action.victimRows;
    if (rows.empty())
        return;
    const std::uint64_t limit = _rank.rowsPerBank();
    std::erase_if(rows, [limit](Row r) { return r.value() >= limit; });
    if (!rows.empty())
        _probes[bank].count(cycle, "mem.victim_rows",
                            static_cast<double>(rows.size()));
    if (_chunkRows == 0 || rows.size() <= _chunkRows) {
        _rank.refreshVictimRows(cycle, bank, rows);
    } else {
        // Large burst: refresh logically now, owe the busy time and
        // let the driver pay it down between later accesses.
        _debt[bank] += _rank.refreshVictimRowsDeferred(bank, rows);
    }
}

void
ProtectedRank::saveState(ckpt::Writer &w) const
{
    for (const Cycle owed : _debt)
        GRAPHENE_CHECK(owed == Cycle{}, "checkpoint with refresh debt");
    w.u64(_acts);
    w.u64(_nrrEvents);
    w.u64(_rank.refreshCount());
    _rank.saveState(w);
    for (const auto &scheme : _schemes) {
        w.boolean(scheme != nullptr);
        if (scheme)
            scheme->saveState(w);
    }
}

void
ProtectedRank::restoreState(ckpt::Reader &r)
{
    _acts = r.u64();
    _nrrEvents = r.u64();
    const std::uint64_t refreshes = r.u64();
    _rank.restoreState(r);
    if (refreshes != _rank.refreshCount())
        r.fail();
    for (unsigned b = 0; b < _schemes.size(); ++b) {
        // The configuration fingerprint covers the scheme kind, so a
        // mismatch here means hand-edited bytes; reject, don't crash.
        if (r.boolean() != (_schemes[b] != nullptr))
            return r.fail();
        if (_schemes[b]) {
            _schemes[b]->restoreState(r);
            _schemes[b]->attachProbe(_probes[b]);
        }
    }
}

ProtectedRank::Schemes
buildBankSchemes(const schemes::SchemeSpec &spec, unsigned banks,
                 const std::function<std::uint64_t(unsigned)> &seed_of)
{
    ProtectedRank::Schemes out;
    out.reserve(banks);
    for (unsigned b = 0; b < banks; ++b) {
        schemes::SchemeSpec bank_spec = spec;
        bank_spec.seed = seed_of(b);
        auto built = schemes::makeScheme(bank_spec);
        GRAPHENE_CHECK(built.ok(), "invalid scheme spec: %s",
                       built.error().describe().c_str());
        out.push_back(std::move(built).value());
    }
    return out;
}

} // namespace mem
} // namespace graphene
