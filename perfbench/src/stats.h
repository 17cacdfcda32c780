/// \file stats.h
/// \brief Sample statistics with the benchmark's quantile rules.
///
/// A timing is a median over many operations; a tail is the highest
/// percentile that still has at least ten samples beyond it, and exists
/// only when a run holds at least forty samples (fewer would make the
/// "tail" a handful of values).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Minimum sample count for a tail, and samples that must lie beyond it.
inline constexpr std::size_t kTailMinSamples = 40;
inline constexpr std::size_t kTailBeyond = 10;

/// The tail of a sample set under the rule above.
struct Tail {
    double value = 0.0;
    double percentile = 0.0; ///< nearest-rank percentile of `value`
    std::size_t samples = 0; ///< sample count it was taken from
};

/// Median (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// The tail quantile, or nullopt below kTailMinSamples samples.  The value
/// is the sorted sample at nearest-rank index n - kTailBeyond - 1, so
/// exactly kTailBeyond samples lie beyond it.
[[nodiscard]] std::optional<Tail> tail(std::vector<double> values);

/// Add the median of \p values as \p median_name and, when the rule allows
/// one, the tail as \p tail_name, noting its percentile and sample count.
void add_median_and_tail(RunResult& out, const std::string& median_name,
                         const std::string& tail_name, const std::vector<double>& values,
                         const std::string& unit);

} // namespace perfbench
