// The profiling switch (set_profiling / profiling_enabled) lives with the
// profiler and latency_us_bounds() with the metrics registry; this header
// keeps existing includers compiling.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
