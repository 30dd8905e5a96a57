/**
 * @file
 * Time-series sampler for dynamic IPC and power traces (Fig. 21).
 */

#ifndef LIGHTPC_STATS_TIME_SERIES_HH
#define LIGHTPC_STATS_TIME_SERIES_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace lightpc::stats
{

/** One labelled (time, value) trace. */
class TimeSeries
{
  public:
    struct Sample
    {
        Tick when;
        double value;
    };

    explicit TimeSeries(std::string label) : _label(std::move(label)) {}

    /**
     * Record a sample; ticks must be non-decreasing (downsample()
     * assumes time-ordered samples).
     */
    void
    record(Tick when, double value)
    {
        if (!_samples.empty() && when < _samples.back().when)
            panic("TimeSeries '", _label, "': tick ", when,
                  " precedes last recorded tick ",
                  _samples.back().when);
        _samples.push_back({when, value});
    }

    const std::vector<Sample> &samples() const { return _samples; }

    /**
     * Downsample to at most @p max_points by averaging equal-width
     * time windows; used when printing figure series.
     */
    std::vector<Sample>
    downsample(std::size_t max_points) const
    {
        if (_samples.size() <= max_points || max_points == 0)
            return _samples;
        std::vector<Sample> out;
        out.reserve(max_points);
        const std::size_t stride =
            (_samples.size() + max_points - 1) / max_points;
        for (std::size_t i = 0; i < _samples.size(); i += stride) {
            double sum = 0.0;
            std::size_t n = 0;
            for (std::size_t j = i;
                 j < _samples.size() && j < i + stride; ++j, ++n)
                sum += _samples[j].value;
            out.push_back({_samples[i].when,
                           sum / static_cast<double>(n)});
        }
        return out;
    }

  private:
    std::string _label;
    std::vector<Sample> _samples;
};

} // namespace lightpc::stats

#endif // LIGHTPC_STATS_TIME_SERIES_HH
