(** Poll-based filesystem watcher feeding config changes to [watch].

    Watches a directory of config files named [<image-id>@<app>.conf].
    {!create} baselines the directory; each {!poll} afterwards reports
    the files whose [(mtime, size)] stat signature changed (including
    files that appeared), with their current contents.  The serve loop
    turns each change ({!delta}) into a synthesized [watch] request
    ({!watch_request}): a full check of the named image's session with
    that app's config replaced.

    Deleted files are forgotten silently; files that do not match the
    naming convention are ignored.  Detection is by stat signature, so
    a same-size rewrite within the filesystem's mtime granularity can
    be missed — the trade for a dependency-free, portable watcher. *)

type delta = {
  d_image_id : string;
  d_app : string;
  d_path : string;
  d_text : string;  (** file contents at detection time *)
}

type t

val create : dir:string -> t
(** Baseline scan: existing files become current state, not deltas. *)

val poll : t -> delta list
(** Changes since the previous poll (or {!create}), in file-name
    order.  Never raises: unreadable files and a vanished directory
    yield no deltas. *)

val poll_images : t -> string list
(** New or changed [<name>.img] collector image dumps since the
    previous poll, as paths in file-name order — the
    continuous-learning feed.  Shares {!create}'s baseline (dumps
    present at startup are not replayed) and the change detection of
    {!poll}; the two polls are independent. *)

val dir : t -> string

val watch_request : delta -> string
(** The delta as a serve-protocol [watch] request line, correlation id
    [fswatch:<image-id>]. *)

val learn_request : string -> string
(** An image-dump path as a serve-protocol [learn-append] request
    line, correlation id [fswatch:<basename>]. *)
