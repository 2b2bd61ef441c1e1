/**
 * @file
 * Inode layer of the LFS: inode cache, allocation, block-pointer
 * traversal and the log-append write path for file blocks and
 * indirect blocks.
 */

#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

namespace {

/** Block pointers per pointer block. */
std::uint32_t
ptrsPer(std::uint32_t block_size)
{
    return block_size / sizeof(BlockAddr);
}

} // namespace

std::uint64_t
Lfs::maxFileBlocks(std::uint32_t block_size)
{
    const std::uint64_t p = ptrsPer(block_size);
    return numDirect + p + p * p;
}

DiskInode &
Lfs::getInode(InodeNum ino)
{
    return const_cast<DiskInode &>(getInodeConst(ino));
}

const DiskInode &
Lfs::getInodeConst(InodeNum ino) const
{
    if (ino == nullIno || ino >= sb.maxInodes)
        throw LfsError(Errno::Invalid, "bad inode number");
    auto it = inodeCache.find(ino);
    if (it != inodeCache.end())
        return it->second;

    const ImapEntry &e = imapEntryConst(ino);
    if (!e.allocated())
        throw LfsError(Errno::NoEntry, "inode not allocated");
    if (e.blockAddr >= dev.numBlocks()) {
        throw LfsError(Errno::Invalid,
                       "imap block address out of range for inode " +
                           std::to_string(ino));
    }

    std::vector<std::uint8_t> block(sb.blockSize);
    readBlockAny(e.blockAddr, {block.data(), block.size()});
    DiskInode inode;
    std::memcpy(&inode, block.data() + std::size_t(e.slot) * inodeBytes,
                sizeof(inode));
    if (inode.ino != ino) {
        // Corrupt media, not a program bug: surface it to callers.
        throw LfsError(Errno::Invalid,
                       "inode block corrupt (want " +
                           std::to_string(ino) + " got " +
                           std::to_string(inode.ino) + ")");
    }
    return inodeCache.emplace(ino, inode).first->second;
}

void
Lfs::markInodeDirty(InodeNum ino)
{
    dirtyInodes.insert(ino);
}

InodeNum
Lfs::allocInode(FileType type)
{
    auto in_use = [this](InodeNum i) {
        if (imap[i].allocated())
            return true;
        auto it = inodeCache.find(i);
        return it != inodeCache.end() &&
               it->second.fileType() != FileType::Free;
    };

    for (std::uint32_t tries = 0; tries < sb.maxInodes; ++tries) {
        InodeNum cand = nextIno;
        nextIno = nextIno + 1 >= sb.maxInodes ? 1 : nextIno + 1;
        if (cand == nullIno || cand >= sb.maxInodes)
            continue;
        if (in_use(cand))
            continue;
        DiskInode inode{};
        inode.ino = cand;
        inode.type = static_cast<std::uint16_t>(type);
        inode.gen = imap[cand].gen + 1;
        inode.mtime = ++logicalTime;
        inodeCache[cand] = inode;
        markInodeDirty(cand);
        return cand;
    }
    throw LfsError(Errno::NoSpace, "out of inodes");
}

void
Lfs::freeInode(InodeNum ino)
{
    ImapEntry &e = imapEntry(ino);
    if (e.allocated()) {
        usageSub(e.blockAddr, inodeBytes);
        e.blockAddr = nullAddr;
        e.slot = 0;
        ++e.gen;
        markImapDirty(ino);
    }
    inodeCache.erase(ino);
    dirtyInodes.erase(ino);
}

void
Lfs::flushInodes()
{
    if (dirtyInodes.empty())
        return;
    std::vector<InodeNum> pending(dirtyInodes.begin(), dirtyInodes.end());
    dirtyInodes.clear();

    const std::uint32_t per_block = sb.inodesPerBlock();
    std::vector<std::uint8_t> block(sb.blockSize);
    std::size_t i = 0;
    while (i < pending.size()) {
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::size_t>(per_block, pending.size() - i));
        std::fill(block.begin(), block.end(), 0);
        for (std::uint32_t s = 0; s < n; ++s) {
            const DiskInode &inode = inodeCache.at(pending[i + s]);
            std::memcpy(block.data() + std::size_t(s) * inodeBytes,
                        &inode, sizeof(inode));
        }
        ensureSpace();
        const BlockAddr addr = segw->add(BlockKind::InodeBlock,
                                         pending[i], 0,
                                         {block.data(), block.size()});
        for (std::uint32_t s = 0; s < n; ++s) {
            const InodeNum ino = pending[i + s];
            ImapEntry &e = imapEntry(ino);
            if (e.allocated())
                usageSub(e.blockAddr, inodeBytes);
            e.blockAddr = addr;
            e.slot = s;
            e.gen = inodeCache.at(ino).gen;
            markImapDirty(ino);
        }
        usageAdd(addr, n * inodeBytes);
        i += n;
    }
}

BlockAddr
Lfs::BlockMapCursor::entry(PointerBlock &pb, BlockAddr addr,
                           std::uint64_t idx)
{
    if (addr == nullAddr)
        return nullAddr;
    if (pb.addr != addr) {
        pb.bytes.resize(bs);
        read(addr, {pb.bytes.data(), pb.bytes.size()});
        pb.addr = addr;
    }
    BlockAddr value;
    std::memcpy(&value, pb.bytes.data() + idx * sizeof(value),
                sizeof(value));
    return value;
}

BlockAddr
Lfs::BlockMapCursor::lookup(std::uint64_t fbno)
{
    const std::uint32_t p = ptrsPer(bs);
    if (fbno < numDirect)
        return inode.direct[fbno];
    if (fbno < numDirect + p)
        return entry(leaf, inode.indirect, fbno - numDirect);
    if (fbno < maxFileBlocks(bs)) {
        const std::uint64_t rel = fbno - numDirect - p;
        return entry(leaf, entry(root, inode.dindirect, rel / p),
                     rel % p);
    }
    throw LfsError(Errno::FileTooBig, "file block number out of range");
}

Lfs::BlockMapCursor
Lfs::blockMap(const DiskInode &inode) const
{
    return BlockMapCursor(sb.blockSize, inode,
                          [this](BlockAddr a, std::span<std::uint8_t> out) {
                              readBlockAny(a, out);
                          });
}

BlockAddr
Lfs::getFileBlock(const DiskInode &inode, std::uint64_t fbno) const
{
    return blockMap(inode).lookup(fbno);
}

namespace {
/** Shared pointer-block rewrite machinery, as a local helper bound to
 *  an Lfs via friend-like lambdas would be awkward; keep it in-class
 *  through setFileBlock below. */
} // namespace

void
Lfs::setFileBlock(DiskInode &inode, std::uint64_t fbno, BlockAddr addr)
{
    const std::uint32_t p = ptrsPer(sb.blockSize);

    // Rewrite (or update in place) one pointer block.
    auto rewrite = [this](BlockKind kind, InodeNum ino, std::uint64_t aux,
                          BlockAddr ref, std::uint64_t idx,
                          BlockAddr value) -> BlockAddr {
        std::vector<std::uint8_t> block(sb.blockSize, 0);
        if (ref != nullAddr)
            readBlockAny(ref, {block.data(), block.size()});
        std::memcpy(block.data() + idx * sizeof(value), &value,
                    sizeof(value));
        if (ref != nullAddr && segw->contains(ref)) {
            segw->updateInPlace(ref, {block.data(), block.size()});
            return ref;
        }
        const BlockAddr naddr =
            segw->add(kind, ino, aux, {block.data(), block.size()});
        usageAdd(naddr, sb.blockSize);
        if (ref != nullAddr)
            usageSub(ref, sb.blockSize);
        return naddr;
    };

    if (fbno < numDirect) {
        inode.direct[fbno] = addr;
        return;
    }
    if (fbno < numDirect + p) {
        inode.indirect = rewrite(BlockKind::Ind1, inode.ino, 0,
                                 inode.indirect, fbno - numDirect, addr);
        return;
    }
    if (fbno >= maxFileBlocks(sb.blockSize))
        throw LfsError(Errno::FileTooBig, "file too big");

    const std::uint64_t rel = fbno - numDirect - p;
    const std::uint64_t ci = rel / p;
    const std::uint64_t idx = rel % p;

    // Find the current child block.
    BlockAddr child = nullAddr;
    if (inode.dindirect != nullAddr) {
        std::vector<std::uint8_t> root(sb.blockSize);
        readBlockAny(inode.dindirect, {root.data(), root.size()});
        std::memcpy(&child, root.data() + ci * sizeof(child),
                    sizeof(child));
    }
    const BlockAddr new_child = rewrite(BlockKind::Ind2Child, inode.ino,
                                        ci, child, idx, addr);
    if (new_child != child) {
        inode.dindirect = rewrite(BlockKind::Ind2Root, inode.ino, 0,
                                  inode.dindirect, ci, new_child);
    }
}

void
Lfs::writeFileBlock(DiskInode &inode, std::uint64_t fbno,
                    std::span<const std::uint8_t> data)
{
    ensureSpace();
    const BlockAddr old = getFileBlock(inode, fbno);
    if (old != nullAddr && segw->contains(old)) {
        segw->updateInPlace(old, data);
        return;
    }
    const BlockAddr addr =
        segw->add(BlockKind::Data, inode.ino, fbno, data);
    usageAdd(addr, sb.blockSize);
    if (old != nullAddr)
        usageSub(old, sb.blockSize);
    setFileBlock(inode, fbno, addr);
}

void
Lfs::freeFileBlocks(DiskInode &inode, std::uint64_t first_keep_fbno)
{
    const std::uint32_t bs = sb.blockSize;
    const std::uint32_t p = ptrsPer(bs);
    const std::uint64_t keep = first_keep_fbno;

    // Directs.
    for (std::uint64_t i = std::min<std::uint64_t>(keep, numDirect);
         i < numDirect; ++i) {
        if (inode.direct[i] != nullAddr) {
            usageSub(inode.direct[i], bs);
            inode.direct[i] = nullAddr;
        }
    }

    // Clear entries [from, p) of a pointer block; returns true if the
    // block became empty (and frees @p deep children first).
    auto clear_tail = [&](BlockAddr &ref, std::uint64_t from,
                          bool entries_are_children,
                          auto &&clear_child) -> void {
        if (ref == nullAddr)
            return;
        std::vector<std::uint8_t> block(bs);
        readBlockAny(ref, {block.data(), block.size()});
        auto *ptrs = reinterpret_cast<BlockAddr *>(block.data());
        bool any_live = false;
        bool changed = false;
        for (std::uint64_t i = 0; i < p; ++i) {
            if (i < from) {
                any_live = any_live || ptrs[i] != nullAddr;
                continue;
            }
            if (ptrs[i] == nullAddr)
                continue;
            if (entries_are_children) {
                clear_child(ptrs[i]);
            } else {
                usageSub(ptrs[i], bs);
            }
            ptrs[i] = nullAddr;
            changed = true;
        }
        if (!any_live) {
            usageSub(ref, bs);
            ref = nullAddr;
            return;
        }
        if (changed) {
            if (segw->contains(ref)) {
                segw->updateInPlace(ref, {block.data(), block.size()});
            } else {
                // The trimmed pointer block must be relocated; kind is
                // approximate (Ind1) — the cleaner re-derives liveness
                // from the inode, not the summary kind.
                const BlockAddr naddr =
                    segw->add(BlockKind::Ind1, inode.ino, 0,
                              {block.data(), block.size()});
                usageAdd(naddr, bs);
                usageSub(ref, bs);
                ref = naddr;
            }
        }
    };

    auto free_whole_child = [&](BlockAddr child) {
        std::vector<std::uint8_t> block(bs);
        readBlockAny(child, {block.data(), block.size()});
        const auto *ptrs =
            reinterpret_cast<const BlockAddr *>(block.data());
        for (std::uint64_t i = 0; i < p; ++i) {
            if (ptrs[i] != nullAddr)
                usageSub(ptrs[i], bs);
        }
        usageSub(child, bs);
    };

    // Single indirect: file blocks [numDirect, numDirect + p).
    {
        const std::uint64_t from =
            keep <= numDirect ? 0 : std::min<std::uint64_t>(keep -
                                                            numDirect, p);
        if (from < p) {
            ensureSpace();
            // Through a local: the packed DiskInode field is not 8-byte
            // aligned, so it cannot bind to clear_tail's reference.
            BlockAddr ind = inode.indirect;
            clear_tail(ind, from, false, free_whole_child);
            inode.indirect = ind;
        }
    }

    // Double indirect: file blocks [numDirect + p, ...).
    if (inode.dindirect != nullAddr) {
        const std::uint64_t base = numDirect + p;
        const std::uint64_t from_rel = keep <= base ? 0 : keep - base;
        const std::uint64_t first_child = from_rel / p;
        const std::uint64_t within = from_rel % p;

        std::vector<std::uint8_t> root(bs);
        readBlockAny(inode.dindirect, {root.data(), root.size()});
        auto *ptrs = reinterpret_cast<BlockAddr *>(root.data());

        // Partially trim the boundary child.
        if (within != 0 && first_child < p &&
            ptrs[first_child] != nullAddr) {
            ensureSpace();
            BlockAddr child = ptrs[first_child];
            clear_tail(child, within, false, free_whole_child);
            if (child != ptrs[first_child]) {
                ptrs[first_child] = child;
                // Root content changed; fold into the rewrite below by
                // writing it back through setFileBlock-style path.
                if (segw->contains(inode.dindirect)) {
                    segw->updateInPlace(inode.dindirect,
                                        {root.data(), root.size()});
                } else {
                    ensureSpace();
                    const BlockAddr naddr = segw->add(
                        BlockKind::Ind2Root, inode.ino, 0,
                        {root.data(), root.size()});
                    usageAdd(naddr, bs);
                    usageSub(inode.dindirect, bs);
                    inode.dindirect = naddr;
                }
            }
        }

        // Fully free children after the boundary.
        const std::uint64_t first_whole =
            within == 0 ? first_child : first_child + 1;
        if (first_whole < p) {
            ensureSpace();
            BlockAddr dind = inode.dindirect;
            clear_tail(dind, first_whole, true, free_whole_child);
            inode.dindirect = dind;
        }
    }

    markInodeDirty(inode.ino);
}

} // namespace raid2::lfs
