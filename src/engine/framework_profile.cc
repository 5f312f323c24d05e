#include "engine/framework_profile.hh"

namespace lightllm {
namespace engine {

EngineConfig
FrameworkProfile::toEngineConfig() const
{
    EngineConfig config;
    config.timeFactor = timeFactor;
    config.splitFuseChunk = splitFuse ? 512 : 0;
    return config;
}

FrameworkProfile
FrameworkProfile::tgi()
{
    FrameworkProfile profile;
    profile.name = "TGI";
    profile.scheduler = core::SchedulerConfig::conservative(1.0);
    profile.timeFactor = 1.10;
    return profile;
}

FrameworkProfile
FrameworkProfile::vllm()
{
    FrameworkProfile profile;
    profile.name = "vLLM";
    profile.scheduler = core::SchedulerConfig::aggressive(0.95);
    profile.timeFactor = 0.95;
    return profile;
}

FrameworkProfile
FrameworkProfile::deepspeedMii()
{
    FrameworkProfile profile;
    profile.name = "DeepSpeed-MII";
    profile.scheduler = core::SchedulerConfig::conservative(1.0);
    profile.timeFactor = 1.0;
    profile.splitFuse = true;
    return profile;
}

FrameworkProfile
FrameworkProfile::tensorrtLlm()
{
    FrameworkProfile profile;
    profile.name = "TensorRT-LLM";
    profile.scheduler = core::SchedulerConfig::conservative(1.0);
    profile.timeFactor = 0.80;
    return profile;
}

FrameworkProfile
FrameworkProfile::lightllm()
{
    FrameworkProfile profile;
    profile.name = "LightLLM";
    profile.scheduler = core::SchedulerConfig::pastFutureDefault(0.03);
    profile.timeFactor = 0.90;
    return profile;
}

std::vector<FrameworkProfile>
FrameworkProfile::all()
{
    return {tgi(), vllm(), deepspeedMii(), tensorrtLlm(),
            lightllm()};
}

} // namespace engine
} // namespace lightllm
