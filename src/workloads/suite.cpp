#include "workloads/suite.hpp"

#include <filesystem>
#include <sstream>

#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"

namespace ocps {

SuiteOptions suite_options_from_env() {
  SuiteOptions options;
  options.trace_length = static_cast<std::size_t>(
      env_int("OCPS_TRACE_LENGTH",
              static_cast<std::int64_t>(options.trace_length)));
  options.capacity = static_cast<std::size_t>(
      env_int("OCPS_CAPACITY", static_cast<std::int64_t>(options.capacity)));
  return options;
}

const ProgramModel& Suite::by_name(const std::string& name) const {
  return models[index_of(name)];
}

std::size_t Suite::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < models.size(); ++i)
    if (models[i].name == name) return i;
  OCPS_CHECK(false, "no model named '" << name << "'");
  return 0;
}

namespace {

std::string cache_path(const SuiteOptions& options, const WorkloadSpec& spec) {
  std::ostringstream os;
  os << options.cache_dir << "/" << spec.name << "_n"
     << options.trace_length << ".fp";
  return os.str();
}

ProgramModel profile_one(const WorkloadSpec& spec,
                         const SuiteOptions& options) {
  // Cached footprint files replay the paper's setup: the optimizer reads
  // per-program footprint files rather than re-tracing.
  if (!options.cache_dir.empty()) {
    std::string path = cache_path(options, spec);
    if (std::filesystem::exists(path)) {
      OCPS_OBS_COUNT("workloads.cache_hits", 1);
      FootprintFile file = load_footprint_file(path);
      return model_from_footprint_file(file, options.capacity);
    }
  }
  obs::ScopedSpan span("workloads.profile_one", "workloads");
  span.set_arg("accesses", options.trace_length);
  OCPS_OBS_COUNT("workloads.traces_generated", 1);
  OCPS_OBS_COUNT("workloads.accesses_generated", options.trace_length);
  Trace trace = spec.generate(options.trace_length);
  FootprintCurve fp = compute_footprint(trace);
  ProgramModel model = make_program_model(spec.name, spec.access_rate, fp,
                                          options.capacity,
                                          options.footprint_knots);
  if (!options.cache_dir.empty()) {
    // The model already holds the simplified knots; reuse them rather
    // than running Douglas-Peucker a second time.
    std::filesystem::create_directories(options.cache_dir);
    FootprintFile file{model.name, model.access_rate, model.trace_length,
                       model.distinct, model.footprint};
    save_footprint_file(file, cache_path(options, spec),
                        options.footprint_knots);
  }
  return model;
}

}  // namespace

Suite build_suite(const std::vector<WorkloadSpec>& specs,
                  const SuiteOptions& options) {
  OCPS_CHECK(options.trace_length > 0, "trace length must be positive");
  OCPS_CHECK(options.capacity > 0, "capacity must be positive");
  obs::ScopedSpan span("workloads.build_suite", "workloads");
  span.set_arg("programs", specs.size());
  Suite suite;
  suite.options = options;
  suite.specs = specs;
  suite.models.resize(specs.size());
  parallel_for(0, specs.size(), [&](std::size_t i) {
    suite.models[i] = profile_one(specs[i], options);
  });
  return suite;
}

Suite build_spec2006_suite(const SuiteOptions& options) {
  return build_suite(spec2006_suite(), options);
}

Trace suite_trace(const Suite& suite, std::size_t program_index) {
  OCPS_CHECK(program_index < suite.specs.size(),
             "program index out of range");
  return suite.specs[program_index].generate(suite.options.trace_length);
}

}  // namespace ocps
