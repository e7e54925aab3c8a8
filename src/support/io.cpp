#include "support/io.h"

#include <atomic>
#include <cstdio>
#include <fstream>

#include "support/strings.h"

namespace gevo {

bool
replaceFile(const std::string& path,
            const std::function<void(std::ostream&)>& write,
            std::string* error)
{
    static std::atomic<std::uint64_t> saveCounter{0};
    const std::string tmp = strformat(
        "%s.tmp.%llu.%llu", path.c_str(),
        static_cast<unsigned long long>(::getpid()),
        static_cast<unsigned long long>(
            saveCounter.fetch_add(1, std::memory_order_relaxed)));
    {
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        write(file);
        file.flush();
        if (!file.good()) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "rename '" + tmp + "' -> '" + path + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace gevo
