#include "dram/fault_model.hh"

#include <algorithm>
#include <bit>

#include "ckpt/io.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace dram {

FaultModel::FaultModel(const FaultConfig &config, std::uint64_t num_rows)
    : _config(config), _numRows(num_rows), _cells(num_rows),
      _touched((num_rows + 63) / 64)
{
    GRAPHENE_CHECK(!_config.mu.empty(),
                   "fault model: empty coefficient vector");
    GRAPHENE_CHECK(_config.rowHammerThreshold > 0.0,
                   "fault model: non-positive Row Hammer threshold");

    if (_config.remap) {
        // Fisher-Yates shuffle for the logical -> physical map.
        _toPhysical.resize(num_rows);
        _toLogical.resize(num_rows);
        for (std::uint64_t i = 0; i < num_rows; ++i)
            _toPhysical[i] = Row{static_cast<Row::rep>(i)};
        Rng rng(_config.remapSeed);
        for (std::uint64_t i = num_rows - 1; i > 0; --i) {
            const std::uint64_t j = rng.nextRange(i + 1);
            std::swap(_toPhysical[i], _toPhysical[j]);
        }
        for (std::uint64_t i = 0; i < num_rows; ++i)
            _toLogical[_toPhysical[i].value()] =
                Row{static_cast<Row::rep>(i)};
    }
}

void
FaultModel::onActivate(Cycle cycle, Row aggressor)
{
    const Row phys =
        _config.remap ? _toPhysical[aggressor.value()] : aggressor;
    for (unsigned d = 1; d <= _config.mu.size(); ++d) {
        const double amount = _config.mu[d - 1];
        const auto dist = static_cast<Row::difference_type>(d);
        if (phys.value() >= d) {
            const Row victim_phys = phys - dist;
            deposit(cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
        if (phys.value() + d < _numRows) {
            const Row victim_phys = phys + dist;
            deposit(cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
    }
}

std::vector<Row>
FaultModel::physicalNeighbors(Row aggressor, unsigned distance) const
{
    std::vector<Row> neighbors;
    neighbors.reserve(2 * distance);
    const Row phys =
        _config.remap ? _toPhysical[aggressor.value()] : aggressor;
    for (unsigned d = 1; d <= distance; ++d) {
        const auto dist = static_cast<Row::difference_type>(d);
        if (phys.value() >= d) {
            const Row victim_phys = phys - dist;
            neighbors.push_back(_config.remap
                                    ? _toLogical[victim_phys.value()]
                                    : victim_phys);
        }
        if (phys.value() + d < _numRows) {
            const Row victim_phys = phys + dist;
            neighbors.push_back(_config.remap
                                    ? _toLogical[victim_phys.value()]
                                    : victim_phys);
        }
    }
    return neighbors;
}

void
FaultModel::deposit(Cycle cycle, Row victim, double amount)
{
    CellState &cell = _cells[victim.value()];
    // Unconditional: testing whether the cell was fresh first is a
    // branch on a cache-missing load that sparse traffic mispredicts.
    _touched[victim.value() / 64] |= std::uint64_t{1}
                                     << (victim.value() % 64);
    cell.disturbance += amount;
    if (cell.disturbance > _peak)
        _peak = cell.disturbance;
    if (!cell.flipped &&
        cell.disturbance >= _config.rowHammerThreshold) {
        cell.flipped = true;
        _flips.push_back({victim, cycle, cell.disturbance});
    }
}

void
FaultModel::onRowRefresh(Row row)
{
    GRAPHENE_CHECK(row.value() < _numRows,
                   "refresh of out-of-range row %u", row.value());
    _cells[row.value()] = CellState{};
    _touched[row.value() / 64] &= ~(std::uint64_t{1}
                                    << (row.value() % 64));
}

double
FaultModel::disturbance(Row row) const
{
    return row.value() < _numRows ? _cells[row.value()].disturbance
                                  : 0.0;
}

template <typename F>
void
FaultModel::forEachTouched(F &&f) const
{
    for (std::size_t word = 0; word < _touched.size(); ++word)
        for (std::uint64_t bits = _touched[word]; bits != 0;
             bits &= bits - 1)
            f(Row{static_cast<Row::rep>(
                word * 64 +
                static_cast<unsigned>(std::countr_zero(bits)))});
}

void
FaultModel::saveState(ckpt::Writer &w) const
{
    // Sparse cell encoding: a bank holds 64Ki rows but an attack
    // disturbs a handful, so only non-default cells are written, in
    // row order (deterministic bytes). The touched bitmap is a
    // superset of them (a zero-weight deposit touches a row without
    // disturbing it), hence the filter.
    auto live_cell = [this](Row row) {
        const CellState &c = _cells[row.value()];
        return c.disturbance != 0.0 || c.flipped;
    };
    std::uint64_t live = 0;
    forEachTouched([&](Row row) { live += live_cell(row) ? 1 : 0; });
    w.u64(live);
    forEachTouched([&](Row row) {
        if (!live_cell(row))
            return;
        const CellState &c = _cells[row.value()];
        w.u32(row.value());
        w.f64(c.disturbance);
        w.boolean(c.flipped);
    });
    w.u64(_flips.size());
    for (const BitFlip &f : _flips) {
        w.u32(f.victimRow.value());
        w.u64(f.cycle.value());
        w.f64(f.disturbance);
    }
    w.f64(_peak);
}

void
FaultModel::restoreState(ckpt::Reader &r)
{
    forEachTouched([this](Row row) { _cells[row.value()] = CellState{}; });
    std::fill(_touched.begin(), _touched.end(), 0);
    const std::uint64_t live = r.u64();
    if (live > _numRows) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < live && !r.failed(); ++i) {
        const Row row{r.u32()};
        const double disturbance = r.f64();
        const bool flipped = r.boolean();
        if (row.value() >= _numRows) {
            r.fail();
            return;
        }
        _cells[row.value()] = CellState{disturbance, flipped};
        _touched[row.value() / 64] |= std::uint64_t{1}
                                      << (row.value() % 64);
    }
    _flips.clear();
    const std::uint64_t flip_count = r.boundedCount(_numRows);
    for (std::uint64_t i = 0; i < flip_count && !r.failed(); ++i) {
        BitFlip f{Row{r.u32()}, Cycle{r.u64()}, r.f64()};
        _flips.push_back(f);
    }
    _peak = r.f64();
}

} // namespace dram
} // namespace graphene
