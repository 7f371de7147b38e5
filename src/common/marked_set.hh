/**
 * @file
 * A set of small integer ids marked since it was last cleared.
 */

#ifndef CHARLLM_COMMON_MARKED_SET_HH
#define CHARLLM_COMMON_MARKED_SET_HH

#include <cstddef>
#include <vector>

namespace charllm {

/**
 * Ids in [0, capacity) marked since the last clear(), each once, in
 * marking order. Sized up front, so mark() never allocates; clear()
 * costs the number of marked ids, not the capacity.
 */
class MarkedSet
{
  public:
    explicit MarkedSet(std::size_t capacity = 0) : flags(capacity, 0)
    {
        list.reserve(capacity);
    }

    void
    mark(int id)
    {
        char& flag = flags[static_cast<std::size_t>(id)];
        if (!flag) {
            flag = 1;
            list.push_back(id);
        }
    }

    const std::vector<int>& ids() const { return list; }

    void
    clear()
    {
        for (int id : list)
            flags[static_cast<std::size_t>(id)] = 0;
        list.clear();
    }

  private:
    std::vector<char> flags;
    std::vector<int> list;
};

} // namespace charllm

#endif // CHARLLM_COMMON_MARKED_SET_HH
