#include "core/agent.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "rl/ppo.h"

namespace rlbf::core {

namespace {

std::unique_ptr<rl::ActorCritic> build_model(const AgentConfig& config,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  if (config.kernel_policy) {
    return std::make_unique<KernelActorCritic>(config.obs, config.net, rng);
  }
  return std::make_unique<FlatActorCritic>(config.obs, config.net, rng);
}

}  // namespace

Agent::Agent(const AgentConfig& config, std::uint64_t seed)
    : config_(config), observer_(config.obs), model_(build_model(config, seed)) {
  if (!config.kernel_policy && !config.obs.pad_policy_obs) {
    throw std::invalid_argument("flat agent requires pad_policy_obs");
  }
}

Agent::Agent(const AgentConfig& config, std::unique_ptr<rl::ActorCritic> model)
    : config_(config), observer_(config.obs), model_(std::move(model)) {
  if (model_ == nullptr) throw std::invalid_argument("Agent: null model");
}

Agent Agent::clone() const { return Agent(config_, model_->clone()); }

std::optional<std::size_t> Agent::choose_greedy(const sim::BackfillContext& ctx,
                                                GreedyBuffers& buffers) const {
  PolicyObservation& po = buffers.obs;
  // The kernel policy scores rows independently, so only the selectable
  // ones need building and scoring; the flat policy reads positions.
  if (config_.kernel_policy) {
    observer_.build_selectable_into(ctx, po);
  } else {
    observer_.build_policy_into(ctx, po);
  }
  if (!po.any_selectable()) return std::nullopt;
  model_->policy_logits_into(po.obs, buffers.logits, buffers.scratch);
  const std::size_t row = rl::argmax_masked(buffers.logits, po.mask);
  const std::size_t candidate = po.row_to_candidate[row];
  if (candidate == kStopAction) return std::nullopt;
  return candidate;
}

bool Agent::save(const std::string& path,
                 const std::map<std::string, std::string>& meta) const {
  nn::ModelBundle bundle;
  bundle.meta = meta;
  bundle.meta["kernel_policy"] = config_.kernel_policy ? "1" : "0";
  bundle.meta["max_obsv_size"] = std::to_string(config_.obs.max_obsv_size);
  bundle.meta["value_obsv_size"] = std::to_string(config_.obs.value_obsv_size);
  bundle.meta["pad_policy_obs"] = config_.obs.pad_policy_obs ? "1" : "0";
  bundle.meta["mask_inadmissible"] = config_.obs.mask_inadmissible ? "1" : "0";
  bundle.meta["stop_action"] = config_.obs.stop_action ? "1" : "0";
  bundle.meta["feature_mask"] = std::to_string(config_.obs.feature_mask);
  if (config_.kernel_policy) {
    const auto& m = dynamic_cast<const KernelActorCritic&>(*model_);
    bundle.mlps.emplace_back("policy", m.policy_net().clone());
    bundle.mlps.emplace_back("value", m.value_net().clone());
  } else {
    const auto& m = dynamic_cast<const FlatActorCritic&>(*model_);
    bundle.mlps.emplace_back("policy", m.policy_net().clone());
    bundle.mlps.emplace_back("value", m.value_net().clone());
  }
  return nn::save_model_file(path, bundle);
}

Agent Agent::load(const std::string& path) {
  const nn::ModelBundle bundle = nn::load_model_file(path);
  const auto meta_get = [&](const char* key, const std::string& dflt) {
    const auto it = bundle.meta.find(key);
    return it == bundle.meta.end() ? dflt : it->second;
  };
  // Strict numeric meta: a garbled value must name the file and key, not
  // surface as a bare std::stoul exception (or worse, load half a config).
  const auto meta_uint = [&](const char* key, const char* dflt) -> std::uint64_t {
    const std::string text = meta_get(key, dflt);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    // strtoull wraps a leading '-' instead of failing; require a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        end == text.c_str() || *end != '\0' || errno == ERANGE) {
      throw std::runtime_error("agent model: bad meta value " + std::string(key) +
                               "='" + text + "' in " + path);
    }
    return v;
  };
  AgentConfig config;
  config.kernel_policy = meta_get("kernel_policy", "1") == "1";
  config.obs.max_obsv_size =
      static_cast<std::size_t>(meta_uint("max_obsv_size", "128"));
  config.obs.value_obsv_size =
      static_cast<std::size_t>(meta_uint("value_obsv_size", "32"));
  config.obs.pad_policy_obs = meta_get("pad_policy_obs", "0") == "1";
  config.obs.mask_inadmissible = meta_get("mask_inadmissible", "0") == "1";
  config.obs.stop_action = meta_get("stop_action", "0") == "1";
  config.obs.feature_mask =
      static_cast<std::uint32_t>(meta_uint("feature_mask", "1023"));

  const nn::Mlp* policy = bundle.find("policy");
  const nn::Mlp* value = bundle.find("value");
  if (policy == nullptr || value == nullptr) {
    throw std::runtime_error("agent model missing policy/value networks: " + path);
  }
  std::unique_ptr<rl::ActorCritic> model;
  if (config.kernel_policy) {
    model = std::make_unique<KernelActorCritic>(config.obs, policy->clone(),
                                                value->clone());
  } else {
    model = std::make_unique<FlatActorCritic>(config.obs, policy->clone(),
                                              value->clone());
  }
  return Agent(config, std::move(model));
}

std::map<std::string, std::string> Agent::load_meta(const std::string& path) {
  // Meta-only read: listing a model store must not parse tensor data.
  return nn::load_model_meta_file(path);
}

}  // namespace rlbf::core
