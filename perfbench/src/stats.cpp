#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail> tail(std::vector<double> values) {
    const std::size_t n = values.size();
    if (n < kTailMinSamples) return std::nullopt;
    std::sort(values.begin(), values.end());
    const std::size_t index = n - kTailBeyond - 1;
    return Tail{values[index], 100.0 * static_cast<double>(index + 1) / static_cast<double>(n),
                n};
}

void add_median_and_tail(RunResult& out, const std::string& median_name,
                         const std::string& tail_name, const std::vector<double>& values,
                         const std::string& unit) {
    out.add(median_name, median(values), unit);
    const std::optional<Tail> t = tail(values);
    if (!t) return;
    out.add(tail_name, t->value, unit);
    char line[256];
    std::snprintf(line, sizeof line, "%s = %.6g %s at p%.2f of %zu samples",
                  tail_name.c_str(), t->value, unit.c_str(), t->percentile, t->samples);
    out.notes.push_back(line);
}

} // namespace perfbench
