#include "snap/snapshot_view.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace raid2::snap {

using lfs::BlockAddr;
using lfs::DiskInode;
using lfs::Errno;
using lfs::FileType;
using lfs::ImapEntry;
using lfs::InodeNum;
using lfs::LfsError;

namespace {

constexpr std::size_t maxNameLen = 255;

/** On-media directory entry prefix (matches lfs/directory.cc). */
struct RawEntryHeader
{
    InodeNum ino;
    std::uint16_t nameLen;
};

std::vector<std::string>
splitPath(const std::string &path)
{
    if (path.empty() || path[0] != '/')
        throw LfsError(Errno::Invalid, "path must be absolute: " + path);
    std::vector<std::string> parts;
    std::size_t pos = 1;
    while (pos < path.size()) {
        const std::size_t next = path.find('/', pos);
        const std::size_t end =
            next == std::string::npos ? path.size() : next;
        if (end > pos)
            parts.push_back(path.substr(pos, end - pos));
        pos = end + 1;
    }
    return parts;
}

} // namespace

SnapshotView::SnapshotView(fs::BlockDevice &dev_,
                           const lfs::SnapshotRecord &rec_)
    : dev(dev_), rec(rec_)
{
    std::vector<std::uint8_t> block(dev.blockSize());
    dev.readBlock(0, {block.data(), block.size()});
    std::memcpy(&sb, block.data(), sizeof(sb));
    if (!sb.valid())
        sim::panic("SnapshotView: bad superblock");
    if (sb.blockSize != dev.blockSize())
        sim::panic("SnapshotView: block size mismatch");
    if (rec.imapChunkAddr.size() != sb.numImapChunks())
        sim::panic("SnapshotView: snapshot imap chunk count mismatch");

    // Load the captured inode map.  Every chunk address points into a
    // pinned segment, so these reads see exactly the bytes the
    // snapshot froze.
    imap.assign(sb.maxInodes, ImapEntry{});
    const std::uint32_t per = sb.imapEntriesPerChunk();
    for (std::uint32_t c = 0; c < rec.imapChunkAddr.size(); ++c) {
        if (rec.imapChunkAddr[c] == lfs::nullAddr)
            continue; // no inode in this chunk's range ever flushed
        readBlock(rec.imapChunkAddr[c], {block.data(), block.size()});
        const std::uint32_t first = c * per;
        const std::uint32_t n =
            std::min(per, sb.maxInodes - first);
        std::memcpy(imap.data() + first, block.data(),
                    std::size_t(n) * sizeof(ImapEntry));
    }
}

void
SnapshotView::readBlock(BlockAddr addr,
                        std::span<std::uint8_t> out) const
{
    if (addr == lfs::nullAddr || addr >= dev.numBlocks()) {
        throw LfsError(Errno::Invalid,
                       "snapshot block address out of range");
    }
    dev.readBlock(addr, out);
}

DiskInode
SnapshotView::getInode(InodeNum ino) const
{
    if (ino == lfs::nullIno || ino >= sb.maxInodes)
        throw LfsError(Errno::Invalid, "bad inode number");
    const ImapEntry &e = imap[ino];
    if (!e.allocated())
        throw LfsError(Errno::NoEntry, "inode not allocated in snapshot");

    std::vector<std::uint8_t> block(sb.blockSize);
    readBlock(e.blockAddr, {block.data(), block.size()});
    DiskInode inode;
    std::memcpy(&inode, block.data() + std::size_t(e.slot) * lfs::inodeBytes,
                sizeof(inode));
    if (inode.ino != ino) {
        throw LfsError(Errno::Invalid,
                       "snapshot inode block corrupt (want " +
                           std::to_string(ino) + " got " +
                           std::to_string(inode.ino) + ")");
    }
    return inode;
}

std::uint64_t
SnapshotView::readData(const DiskInode &inode, std::uint64_t off,
                       std::span<std::uint8_t> out) const
{
    if (off >= inode.size)
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), inode.size - off);

    std::vector<std::uint8_t> block(sb.blockSize);
    lfs::Lfs::BlockMapCursor map(
        sb.blockSize, inode,
        [this](BlockAddr a, std::span<std::uint8_t> buf) {
            readBlock(a, buf);
        });
    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t pos = off + done;
        const std::uint64_t fbno = pos / sb.blockSize;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % sb.blockSize);
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sb.blockSize - in_block, n - done));

        const BlockAddr addr = map.lookup(fbno);
        if (addr == lfs::nullAddr) {
            std::memset(out.data() + done, 0, chunk);
        } else {
            readBlock(addr, {block.data(), block.size()});
            std::memcpy(out.data() + done, block.data() + in_block,
                        chunk);
        }
        done += chunk;
    }
    return n;
}

std::vector<lfs::DirEntry>
SnapshotView::readDirEntries(const DiskInode &dir) const
{
    std::vector<std::uint8_t> raw(dir.size);
    if (dir.size > 0)
        readData(dir, 0, {raw.data(), raw.size()});

    std::vector<lfs::DirEntry> entries;
    std::size_t pos = 0;
    while (pos + sizeof(RawEntryHeader) <= raw.size()) {
        RawEntryHeader hdr;
        std::memcpy(&hdr, raw.data() + pos, sizeof(hdr));
        pos += sizeof(hdr);
        if (hdr.ino == lfs::nullIno && hdr.nameLen == 0)
            break; // padding tail
        if (hdr.nameLen == 0 || hdr.nameLen > maxNameLen ||
            pos + hdr.nameLen > raw.size()) {
            throw LfsError(Errno::Invalid,
                           "corrupt snapshot directory entry in inode " +
                               std::to_string(dir.ino));
        }
        entries.push_back(lfs::DirEntry{
            hdr.ino,
            std::string(reinterpret_cast<const char *>(raw.data() + pos),
                        hdr.nameLen)});
        pos += hdr.nameLen;
    }
    return entries;
}

InodeNum
SnapshotView::resolve(const std::string &path) const
{
    InodeNum cur = rec.root;
    for (const std::string &part : splitPath(path)) {
        const DiskInode dir = getInode(cur);
        if (dir.fileType() != FileType::Directory)
            throw LfsError(Errno::NotDirectory, path);
        InodeNum next = lfs::nullIno;
        for (const lfs::DirEntry &e : readDirEntries(dir)) {
            if (e.name == part) {
                next = e.ino;
                break;
            }
        }
        if (next == lfs::nullIno)
            throw LfsError(Errno::NoEntry, path);
        cur = next;
    }
    return cur;
}

InodeNum
SnapshotView::lookup(const std::string &path) const
{
    return resolve(path);
}

bool
SnapshotView::exists(const std::string &path) const
{
    try {
        resolve(path);
        return true;
    } catch (const LfsError &) {
        return false;
    }
}

lfs::Stat
SnapshotView::statIno(InodeNum ino) const
{
    const DiskInode inode = getInode(ino);
    lfs::Stat st;
    st.ino = ino;
    st.type = inode.fileType();
    st.size = inode.size;
    st.nlink = inode.nlink;
    return st;
}

lfs::Stat
SnapshotView::stat(const std::string &path) const
{
    return statIno(resolve(path));
}

std::vector<lfs::DirEntry>
SnapshotView::readdir(const std::string &path) const
{
    const DiskInode dir = getInode(resolve(path));
    if (dir.fileType() != FileType::Directory)
        throw LfsError(Errno::NotDirectory, path);
    return readDirEntries(dir);
}

std::uint64_t
SnapshotView::read(InodeNum ino, std::uint64_t off,
                   std::span<std::uint8_t> out) const
{
    const DiskInode inode = getInode(ino);
    if (inode.fileType() == FileType::Directory)
        throw LfsError(Errno::IsDirectory, "read of a directory");
    const std::uint64_t n = readData(inode, off, out);
    ++_reads;
    _readBytes += n;
    return n;
}

void
SnapshotView::walkFrom(const std::string &path, InodeNum ino,
                       const std::function<void(const std::string &,
                                                const lfs::Stat &)> &fn)
    const
{
    const lfs::Stat st = statIno(ino);
    fn(path.empty() ? "/" : path, st);
    if (st.type != FileType::Directory)
        return;
    for (const lfs::DirEntry &e : readDirEntries(getInode(ino)))
        walkFrom(path + "/" + e.name, e.ino, fn);
}

void
SnapshotView::walk(const std::function<void(const std::string &,
                                            const lfs::Stat &)> &fn) const
{
    walkFrom("", rec.root, fn);
}

} // namespace raid2::snap
