package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint is the environment envelope carried by every result
// file and printed in the run header: enough to tell whether two
// result files may be compared at all.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Workdir    string `json:"workdir"`
	WorkdirFS  string `json:"workdir_fs"`
	Commit     string `json:"git_commit"`
	Smoke      bool   `json:"smoke"`
	Sizes      sizes  `json:"harness_constants"`
}

func takeFingerprint(workdir string, sz sizes, smoke bool) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Workdir:    workdir,
		WorkdirFS:  fsType(workdir),
		Commit:     gitCommit(),
		Smoke:      smoke,
		Sizes:      sz,
	}
}

func (f fingerprint) print(w io.Writer) {
	fmt.Fprintf(w, "# env go=%s gomaxprocs=%d nproc=%d cpu=%q kernel=%s workdir_fs=%s commit=%s smoke=%v\n",
		f.GoVersion, f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.Kernel, f.WorkdirFS, f.Commit, f.Smoke)
	fmt.Fprintf(w, "# sizes %+v\n", f.Sizes)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the filesystems a work directory is likely to sit on;
// anything else is reported by its statfs magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// gitCommit reads the checked-out commit straight from .git (walking
// up from the working directory), without running git: a driver
// checkout is not a repository and then the commit is "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if c := commitAt(filepath.Join(dir, ".git")); c != "" {
			return c
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func commitAt(gitDir string) string {
	head := firstLine(filepath.Join(gitDir, "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if len(head) == 40 {
			return head
		}
		return ""
	}
	if c := firstLine(filepath.Join(gitDir, ref)); len(c) == 40 {
		return c
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if c, name, ok := strings.Cut(line, " "); ok && name == ref && len(c) == 40 {
			return c
		}
	}
	return ""
}
