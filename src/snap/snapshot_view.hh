/**
 * @file
 * Read-only file system view at a snapshot.
 *
 * A SnapshotView interprets the on-media LFS structures rooted at a
 * SnapshotRecord's captured imap, independently of the live Lfs
 * object: the record's imap chunk addresses point into segments the
 * snapshot pins, so every block the view touches is immutable for the
 * snapshot's lifetime even while the live file system overwrites and
 * cleans around it.  This is what lets the BackupEngine stream and
 * verify a consistent image while the server keeps serving clients.
 */

#ifndef RAID2_SNAP_SNAPSHOT_VIEW_HH
#define RAID2_SNAP_SNAPSHOT_VIEW_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fs/block_device.hh"
#include "lfs/lfs.hh"

namespace raid2::snap {

/** Read-only traversal of one snapshot's file tree. */
class SnapshotView
{
  public:
    /**
     * @p rec is copied: the view stays valid across later snapshot
     * table operations (which may move the live records).
     */
    SnapshotView(fs::BlockDevice &dev, const lfs::SnapshotRecord &rec);

    const lfs::SnapshotRecord &record() const { return rec; }
    lfs::InodeNum rootIno() const { return rec.root; }

    /** @{ Namespace (absolute '/'-separated paths, like lfs::Lfs). */
    lfs::InodeNum lookup(const std::string &path) const;
    bool exists(const std::string &path) const;
    lfs::Stat stat(const std::string &path) const;
    lfs::Stat statIno(lfs::InodeNum ino) const;
    std::vector<lfs::DirEntry> readdir(const std::string &path) const;
    /** @} */

    /** Read [off, off+out.size()) of file @p ino; returns bytes read
     *  (clamped at the snapshot's file size; holes read as zero). */
    std::uint64_t read(lfs::InodeNum ino, std::uint64_t off,
                       std::span<std::uint8_t> out) const;

    /**
     * Depth-first walk of the whole tree: @p fn is called for every
     * node with its absolute path ("/" for the root) and stat.
     */
    void walk(const std::function<void(const std::string &,
                                       const lfs::Stat &)> &fn) const;

    /** @{ Access accounting (snap.* stats). */
    std::uint64_t reads() const { return _reads; }
    std::uint64_t readBytes() const { return _readBytes; }
    /** @} */

  private:
    lfs::DiskInode getInode(lfs::InodeNum ino) const;
    std::uint64_t readData(const lfs::DiskInode &inode, std::uint64_t off,
                           std::span<std::uint8_t> out) const;
    std::vector<lfs::DirEntry>
    readDirEntries(const lfs::DiskInode &dir) const;
    lfs::InodeNum resolve(const std::string &path) const;
    void readBlock(lfs::BlockAddr addr,
                   std::span<std::uint8_t> out) const;
    void walkFrom(const std::string &path, lfs::InodeNum ino,
                  const std::function<void(const std::string &,
                                           const lfs::Stat &)> &fn) const;

    fs::BlockDevice &dev;
    lfs::SnapshotRecord rec;
    lfs::Superblock sb;
    std::vector<lfs::ImapEntry> imap;

    mutable std::uint64_t _reads = 0;
    mutable std::uint64_t _readBytes = 0;
};

} // namespace raid2::snap

#endif // RAID2_SNAP_SNAPSHOT_VIEW_HH
