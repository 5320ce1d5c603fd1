//! Bounded submission/completion queue pairs.

use std::collections::VecDeque;

use crate::{NvmeCommand, NvmeCompletion};

/// Errors surfaced by queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The submission queue is full; the host must back off and poll.
    SubmissionFull,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::SubmissionFull => f.write_str("submission queue full"),
        }
    }
}

impl std::error::Error for QueueError {}

/// One NVMe I/O queue pair: a bounded submission ring the host fills and a
/// completion ring the host polls.
///
/// The UNVMe userspace driver the paper builds on uses "the maximum number
/// of threads/command queues" with polling completion; the `ssd` crate
/// instantiates one `QueuePair` per simulated SLS worker.
///
/// # Example
///
/// ```
/// use recssd_nvme::{NvmeCommand, NvmeCompletion, QueuePair};
/// let mut qp = QueuePair::new(0, 4);
/// qp.submit(NvmeCommand::read(1, 0, 1))?;
/// let cmd = qp.fetch().expect("device sees the command");
/// qp.complete(NvmeCompletion::success(cmd.cid, None));
/// assert_eq!(qp.poll().unwrap().cid, 1);
/// # Ok::<(), recssd_nvme::QueueError>(())
/// ```
#[derive(Debug)]
pub struct QueuePair {
    qid: u16,
    depth: usize,
    sq: VecDeque<NvmeCommand>,
    cq: VecDeque<NvmeCompletion>,
    /// Commands fetched by the device but not yet completed.
    outstanding: usize,
}

impl QueuePair {
    /// Creates a queue pair with the given id and ring depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(qid: u16, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        QueuePair {
            qid,
            depth,
            sq: VecDeque::with_capacity(depth),
            cq: VecDeque::with_capacity(depth),
            outstanding: 0,
        }
    }

    /// Queue id.
    pub fn qid(&self) -> u16 {
        self.qid
    }

    /// Ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Host side: enqueues a command.
    ///
    /// # Errors
    ///
    /// [`QueueError::SubmissionFull`] when `depth` commands are already
    /// in flight (submitted or outstanding).
    pub fn submit(&mut self, cmd: NvmeCommand) -> Result<(), QueueError> {
        if self.sq.len() + self.outstanding >= self.depth {
            return Err(QueueError::SubmissionFull);
        }
        self.sq.push_back(cmd);
        Ok(())
    }

    /// Device side: fetches the oldest submitted command.
    pub fn fetch(&mut self) -> Option<NvmeCommand> {
        let cmd = self.sq.pop_front()?;
        self.outstanding += 1;
        Some(cmd)
    }

    /// Device side: posts a completion for a previously fetched command.
    ///
    /// # Panics
    ///
    /// Panics if there is no outstanding command to complete.
    pub fn complete(&mut self, completion: NvmeCompletion) {
        assert!(
            self.outstanding > 0,
            "completion without outstanding command"
        );
        self.outstanding -= 1;
        self.cq.push_back(completion);
    }

    /// Host side: polls for one completion.
    pub fn poll(&mut self) -> Option<NvmeCompletion> {
        self.cq.pop_front()
    }

    /// Commands submitted but not yet fetched by the device.
    pub fn submitted_pending(&self) -> usize {
        self.sq.len()
    }

    /// Commands fetched but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// `true` when nothing is queued or in flight.
    pub fn quiescent(&self) -> bool {
        self.sq.is_empty() && self.cq.is_empty() && self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmeStatus;

    #[test]
    fn fifo_command_flow() {
        let mut qp = QueuePair::new(1, 8);
        qp.submit(NvmeCommand::read(10, 0, 1)).unwrap();
        qp.submit(NvmeCommand::read(11, 1, 1)).unwrap();
        assert_eq!(qp.submitted_pending(), 2);
        let a = qp.fetch().unwrap();
        let b = qp.fetch().unwrap();
        assert_eq!((a.cid, b.cid), (10, 11));
        assert_eq!(qp.outstanding(), 2);
        qp.complete(NvmeCompletion::success(10, None));
        qp.complete(NvmeCompletion::success(11, None));
        assert_eq!(qp.poll().unwrap().cid, 10);
        assert_eq!(qp.poll().unwrap().cid, 11);
        assert!(qp.poll().is_none());
        assert!(qp.quiescent());
    }

    #[test]
    fn submission_backpressure_counts_outstanding() {
        let mut qp = QueuePair::new(0, 2);
        qp.submit(NvmeCommand::read(0, 0, 1)).unwrap();
        qp.submit(NvmeCommand::read(1, 0, 1)).unwrap();
        assert_eq!(
            qp.submit(NvmeCommand::read(2, 0, 1)),
            Err(QueueError::SubmissionFull)
        );
        // Fetching does not free a slot — the command is still in flight.
        qp.fetch().unwrap();
        assert_eq!(
            qp.submit(NvmeCommand::read(2, 0, 1)),
            Err(QueueError::SubmissionFull)
        );
        // Completion frees the slot.
        qp.complete(NvmeCompletion::error(0, NvmeStatus::InternalError));
        qp.submit(NvmeCommand::read(2, 0, 1)).unwrap();
    }

    #[test]
    #[should_panic(expected = "without outstanding")]
    fn completion_without_fetch_panics() {
        let mut qp = QueuePair::new(0, 2);
        qp.complete(NvmeCompletion::success(0, None));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        QueuePair::new(0, 0);
    }
}
