//! NVMe command and completion structures.

use std::fmt;

use recssd_sim::PageImage;

/// NVMe I/O opcode (the subset the reproduction needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmeOpcode {
    /// Read `nlb` logical blocks starting at `slba`.
    Read,
    /// Write `nlb` logical blocks starting at `slba`.
    Write,
}

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// Starting LBA + length exceeds the namespace.
    LbaOutOfRange,
    /// Malformed command (e.g. NDP bit set with an unknown layout).
    InvalidField,
    /// Device-internal failure.
    InternalError,
    /// Unrecovered media error: a read hit an uncorrectable flash error.
    MediaError,
}

/// An NVMe submission-queue entry.
///
/// `ndp` is the spare command bit of §4.3: with `ndp = true`, a
/// [`NvmeOpcode::Write`] carries SLS configuration data ("a special
/// write-like command, which initiates embedding processing") and a
/// [`NvmeOpcode::Read`] collects the accumulated result pages. The SLS
/// request id is folded into `slba` (see [`NvmeCommand::ndp_slba`]).
///
/// # Example
///
/// ```
/// use recssd_nvme::NvmeCommand;
/// let cmd = NvmeCommand::read(1, 0x40, 8);
/// assert_eq!(cmd.nlb, 8);
/// assert!(!cmd.ndp);
/// let cfg = NvmeCommand::ndp_write(2, NvmeCommand::ndp_slba(0x1000, 3, 0x100), vec![0u8; 64]);
/// assert!(cfg.ndp);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NvmeCommand {
    /// Command identifier, unique within its queue.
    pub cid: u16,
    /// The opcode.
    pub opcode: NvmeOpcode,
    /// The spare bit marking embedding (NDP) commands.
    pub ndp: bool,
    /// Starting logical block address (in 16 KB blocks).
    pub slba: u64,
    /// Number of logical blocks.
    pub nlb: u32,
    /// Host payload for write-like commands.
    pub payload: Option<Vec<u8>>,
    /// Trace id of the host operator that issued the command (zero when
    /// untraced): the device tags every service window the command
    /// causes with it. Not part of the NVMe wire format.
    pub cause: u64,
}

impl NvmeCommand {
    /// A conventional read of `nlb` blocks at `slba`.
    pub fn read(cid: u16, slba: u64, nlb: u32) -> Self {
        NvmeCommand {
            cid,
            opcode: NvmeOpcode::Read,
            ndp: false,
            slba,
            nlb,
            payload: None,
            cause: 0,
        }
    }

    /// A conventional write of the given payload at `slba` (`nlb` derived
    /// by the caller; one block per page image).
    pub fn write(cid: u16, slba: u64, nlb: u32, payload: Vec<u8>) -> Self {
        NvmeCommand {
            cid,
            opcode: NvmeOpcode::Write,
            ndp: false,
            slba,
            nlb,
            payload: Some(payload),
            cause: 0,
        }
    }

    /// The NDP config-write command: ships SLS parameters to the FTL.
    pub fn ndp_write(cid: u16, slba: u64, config: Vec<u8>) -> Self {
        NvmeCommand {
            cid,
            opcode: NvmeOpcode::Write,
            ndp: true,
            slba,
            nlb: config.len().div_ceil(16 * 1024).max(1) as u32,
            payload: Some(config),
            cause: 0,
        }
    }

    /// The NDP result-read command: collects `nlb` result blocks.
    pub fn ndp_read(cid: u16, slba: u64, nlb: u32) -> Self {
        NvmeCommand {
            cid,
            opcode: NvmeOpcode::Read,
            ndp: true,
            slba,
            nlb,
            payload: None,
            cause: 0,
        }
    }

    /// Encodes an SLS request id into a starting LBA, per §4.3: "The SLBA
    /// is set as the starting address of the targeted embedding table added
    /// with the unique request ID. By assuming a minimum table size and
    /// alignment constraints, the two inputs can be separated within the
    /// SSD system using the modulus operator."
    ///
    /// # Panics
    ///
    /// Panics if `request_id` does not fit below the alignment.
    pub fn ndp_slba(table_base: u64, request_id: u64, table_align: u64) -> u64 {
        assert!(
            table_base.is_multiple_of(table_align),
            "table base must be aligned to the agreed table alignment"
        );
        assert!(
            request_id < table_align,
            "request id {request_id} exceeds alignment {table_align}"
        );
        table_base + request_id
    }

    /// Decodes `(table_base, request_id)` from an NDP SLBA.
    pub fn ndp_slba_decode(slba: u64, table_align: u64) -> (u64, u64) {
        (slba / table_align * table_align, slba % table_align)
    }

    /// Payload length in bytes (zero for reads).
    pub fn payload_len(&self) -> usize {
        self.payload.as_ref().map_or(0, |p| p.len())
    }
}

/// Data a read-like command returns to the host.
///
/// Either way the receiver hands it back through the device's single
/// `recycle_buffer` call once consumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CmdData {
    /// One contiguous buffer (NDP result blocks).
    Flat(Vec<u8>),
    /// One page image per logical block, in LBA order — the analogue of a
    /// PRP/SGL list: a conventional read completes with the images the
    /// device already holds instead of assembling them into one buffer.
    Pages(Vec<PageImage>),
}

impl CmdData {
    /// The bytes as one contiguous vector (copies; for assertions and
    /// diagnostics, not the datapath). Page images are zero-extended to
    /// their logical length, so a read of `nlb` blocks is `nlb` pages
    /// long whatever the images back.
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            CmdData::Flat(bytes) => bytes.clone(),
            CmdData::Pages(pages) => {
                let mut bytes = Vec::with_capacity(pages.iter().map(PageImage::len).sum());
                for page in pages {
                    bytes.extend_from_slice(&page.bytes_at(0, page.len()));
                }
                bytes
            }
        }
    }
}

/// An NVMe completion-queue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmeCompletion {
    /// The command this completes.
    pub cid: u16,
    /// Outcome status.
    pub status: NvmeStatus,
    /// Data returned to the host (for read-like commands).
    pub data: Option<CmdData>,
}

impl NvmeCompletion {
    /// A successful completion carrying optional data.
    pub fn success(cid: u16, data: Option<CmdData>) -> Self {
        NvmeCompletion {
            cid,
            status: NvmeStatus::Success,
            data,
        }
    }

    /// An error completion.
    pub fn error(cid: u16, status: NvmeStatus) -> Self {
        NvmeCompletion {
            cid,
            status,
            data: None,
        }
    }
}

impl fmt::Display for NvmeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NvmeStatus::Success => "success",
            NvmeStatus::LbaOutOfRange => "LBA out of range",
            NvmeStatus::InvalidField => "invalid field in command",
            NvmeStatus::InternalError => "internal device error",
            NvmeStatus::MediaError => "unrecovered media error",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let r = NvmeCommand::read(9, 100, 4);
        assert_eq!(
            (r.cid, r.opcode, r.ndp, r.slba, r.nlb),
            (9, NvmeOpcode::Read, false, 100, 4)
        );
        assert_eq!(r.payload_len(), 0);

        let w = NvmeCommand::write(1, 5, 1, vec![1, 2, 3]);
        assert_eq!(w.opcode, NvmeOpcode::Write);
        assert_eq!(w.payload_len(), 3);

        let nw = NvmeCommand::ndp_write(2, 0, vec![0u8; 40_000]);
        assert!(nw.ndp);
        assert_eq!(nw.nlb, 3, "config spanning three 16K blocks");

        let nr = NvmeCommand::ndp_read(3, 0, 2);
        assert!(nr.ndp);
        assert_eq!(nr.opcode, NvmeOpcode::Read);
    }

    #[test]
    fn ndp_slba_round_trips() {
        let align = 1 << 20; // minimum table alignment in blocks
        for (base, req) in [(0u64, 0u64), (1 << 20, 77), (5 << 20, 1_048_575)] {
            let slba = NvmeCommand::ndp_slba(base, req, align);
            assert_eq!(NvmeCommand::ndp_slba_decode(slba, align), (base, req));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds alignment")]
    fn oversized_request_id_rejected() {
        NvmeCommand::ndp_slba(0, 1 << 20, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "must be aligned")]
    fn unaligned_table_base_rejected() {
        NvmeCommand::ndp_slba(12345, 0, 1 << 20);
    }

    #[test]
    fn completion_helpers() {
        let ok = NvmeCompletion::success(4, Some(CmdData::Flat(vec![9])));
        assert_eq!(ok.status, NvmeStatus::Success);
        assert_eq!(ok.data.map(|d| d.to_vec()), Some(vec![9u8]));
        let pages = CmdData::Pages(vec![vec![1, 2].into(), vec![3].into()]);
        assert_eq!(pages.to_vec(), vec![1, 2, 3]);
        let err = NvmeCompletion::error(4, NvmeStatus::LbaOutOfRange);
        assert_eq!(err.status.to_string(), "LBA out of range");
        assert!(err.data.is_none());
    }
}
