/**
 * @file
 * StudyParams / StudyRegistry implementation.
 */

#include "scenario/study.hh"

#include <cmath>
#include <cstdlib>

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::scenario {

namespace {

std::string
canonicalKey(const std::string &name)
{
    return toLower(trim(name));
}

} // namespace

void
StudyParams::set(const std::string &name, const std::string &value)
{
    const std::string key = canonicalKey(name);
    if (key.empty())
        throw ModelError("parameter name must not be empty");
    for (auto &entry : _entries) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    _entries.emplace_back(key, value);
}

bool
StudyParams::has(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &entry : _entries) {
        if (entry.first == key)
            return true;
    }
    return false;
}

std::string
StudyParams::get(const std::string &name,
                 const std::string &fallback) const
{
    const std::string key = canonicalKey(name);
    for (const auto &entry : _entries) {
        if (entry.first == key)
            return entry.second;
    }
    return fallback;
}

double
StudyParams::getNumber(const std::string &name, double fallback) const
{
    if (!has(name))
        return fallback;
    const std::string value = trim(get(name));
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || (end && *end != '\0') ||
        !std::isfinite(parsed)) {
        throw ModelError("parameter '" + canonicalKey(name) +
                         "' expects a finite number, got '" + value +
                         "'");
    }
    return parsed;
}

std::size_t
StudyParams::getCount(const std::string &name,
                      std::size_t fallback) const
{
    if (!has(name))
        return fallback;
    const double parsed = getNumber(name, 0.0);
    if (parsed < 1.0 || parsed != std::floor(parsed)) {
        throw ModelError("parameter '" + canonicalKey(name) +
                         "' expects a positive integer, got '" +
                         get(name) + "'");
    }
    // Checked before the cast: converting a double above the
    // target's range is undefined behaviour.
    if (parsed > maxExactInteger) {
        throw ModelError("parameter '" + canonicalKey(name) +
                         "' must be <= 9007199254740992");
    }
    return static_cast<std::size_t>(parsed);
}

StudyResult &
StudyResult::addMetric(const std::string &name, double value,
                       const std::string &unit)
{
    metrics.push_back({name, value, unit});
    return *this;
}

void
StudyRegistry::add(StudyInfo info)
{
    info.name = canonicalKey(info.name);
    if (info.name.empty())
        throw ModelError("study name must not be empty");
    if (!info.run)
        throw ModelError("study '" + info.name +
                         "' has no run function");
    if (contains(info.name))
        throw ModelError("study '" + info.name +
                         "' is already registered");
    _studies.push_back(std::move(info));
}

bool
StudyRegistry::contains(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &study : _studies) {
        if (study.name == key)
            return true;
    }
    return false;
}

const StudyInfo &
StudyRegistry::find(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &study : _studies) {
        if (study.name == key)
            return study;
    }
    std::string message = "unknown study '" + name + "'";
    const auto suggestions = closestMatches(key, names());
    if (!suggestions.empty())
        message += "; did you mean: " + join(suggestions, ", ") + "?";
    throw ModelError(message + " (studies: " + join(names(), ", ") +
                     ")");
}

std::vector<std::string>
StudyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_studies.size());
    for (const auto &study : _studies)
        out.push_back(study.name);
    return out;
}

StudyRegistry &
StudyRegistry::global()
{
    static StudyRegistry *registry = [] {
        auto *r = new StudyRegistry();
        detail::registerBuiltinStudies(*r);
        return r;
    }();
    return *registry;
}

} // namespace uavf1::scenario
