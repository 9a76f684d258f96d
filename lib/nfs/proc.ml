type t =
  | Null
  | Getattr
  | Setattr
  | Root
  | Lookup
  | Access
  | Readlink
  | Read
  | Writecache
  | Write
  | Create
  | Mkdir
  | Symlink
  | Mknod
  | Remove
  | Rmdir
  | Rename
  | Link
  | Readdir
  | Readdirplus
  | Statfs
  | Fsinfo
  | Pathconf
  | Commit

let to_string = function
  | Null -> "null"
  | Getattr -> "getattr"
  | Setattr -> "setattr"
  | Root -> "root"
  | Lookup -> "lookup"
  | Access -> "access"
  | Readlink -> "readlink"
  | Read -> "read"
  | Writecache -> "writecache"
  | Write -> "write"
  | Create -> "create"
  | Mkdir -> "mkdir"
  | Symlink -> "symlink"
  | Mknod -> "mknod"
  | Remove -> "remove"
  | Rmdir -> "rmdir"
  | Rename -> "rename"
  | Link -> "link"
  | Readdir -> "readdir"
  | Readdirplus -> "readdirplus"
  | Statfs -> "statfs"
  | Fsinfo -> "fsinfo"
  | Pathconf -> "pathconf"
  | Commit -> "commit"

let v2_number = function
  | Null -> Some 0
  | Getattr -> Some 1
  | Setattr -> Some 2
  | Root -> Some 3
  | Lookup -> Some 4
  | Readlink -> Some 5
  | Read -> Some 6
  | Writecache -> Some 7
  | Write -> Some 8
  | Create -> Some 9
  | Remove -> Some 10
  | Rename -> Some 11
  | Link -> Some 12
  | Symlink -> Some 13
  | Mkdir -> Some 14
  | Rmdir -> Some 15
  | Readdir -> Some 16
  | Statfs -> Some 17
  | Access | Mknod | Readdirplus | Fsinfo | Pathconf | Commit -> None

let v3_number = function
  | Null -> Some 0
  | Getattr -> Some 1
  | Setattr -> Some 2
  | Lookup -> Some 3
  | Access -> Some 4
  | Readlink -> Some 5
  | Read -> Some 6
  | Write -> Some 7
  | Create -> Some 8
  | Mkdir -> Some 9
  | Symlink -> Some 10
  | Mknod -> Some 11
  | Remove -> Some 12
  | Rmdir -> Some 13
  | Rename -> Some 14
  | Link -> Some 15
  | Readdir -> Some 16
  | Readdirplus -> Some 17
  | Statfs -> Some 18 (* FSSTAT *)
  | Fsinfo -> Some 19
  | Pathconf -> Some 20
  | Commit -> Some 21
  | Root | Writecache -> None

let all =
  [ Null; Getattr; Setattr; Root; Lookup; Access; Readlink; Read; Writecache; Write; Create;
    Mkdir; Symlink; Mknod; Remove; Rmdir; Rename; Link; Readdir; Readdirplus; Statfs; Fsinfo;
    Pathconf; Commit ]

(* Wire number -> procedure, one array per version, built once: the
   capture path looks a number up for every call it decodes. *)
let rec fill_table table numbering = function
  | [] -> table
  | p :: rest ->
      (match numbering p with Some n -> table.(n) <- Some p | None -> ());
      fill_table table numbering rest

let v2_table = fill_table (Array.make 18 None) v2_number all
let v3_table = fill_table (Array.make 22 None) v3_number all
let lookup table n = if n >= 0 && n < Array.length table then table.(n) else None
let of_v2_number n = lookup v2_table n
let of_v3_number n = lookup v3_table n

let number ~version p = if version = 2 then v2_number p else v3_number p
let of_number ~version n = if version = 2 then of_v2_number n else of_v3_number n

type kind = Data_read | Data_write | Metadata_read | Metadata_write

let kind = function
  | Read -> Data_read
  | Write -> Data_write
  | Setattr | Create | Mkdir | Symlink | Mknod | Remove | Rmdir | Rename | Link | Commit
  | Writecache ->
      Metadata_write
  | Null | Getattr | Root | Lookup | Access | Readlink | Readdir | Readdirplus | Statfs | Fsinfo
  | Pathconf ->
      Metadata_read

let is_data p = match kind p with Data_read | Data_write -> true | Metadata_read | Metadata_write -> false
